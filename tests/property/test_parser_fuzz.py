"""Parser robustness: arbitrary input never crashes with anything but
a library error (ParseError et al.), and the one lexer places every
token where its offset says."""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.errors import ParseError, ReproError
from repro.esql.lexer import tokenize_sql
from repro.esql.parser import parse_script
from repro.terms.parser import parse_rule_text, parse_term, tokenize

_junk = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=80,
)

# printable ASCII plus a non-ASCII sample: letters, a decimal digit,
# numeric symbols that are not decimal digits, a no-break space, a
# newline inside and outside strings
_mixed = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=126),
        st.sampled_from("\n\t\u00e9\u00df\u03bb\u20ac\u0663\u00b2\u00bd"
                        "\u2167\u00a0"),
    ),
    max_size=80,
)

_fragments = st.lists(
    st.sampled_from([
        "SELECT", "FROM", "WHERE", "(", ")", ",", ";", "=", "*",
        "T", "A", "1", "'x'", "AND", "OR", "NOT", "GROUP", "BY",
        "UNION", "IN", "EXISTS", "INSERT", "INTO", "VALUES",
        "CREATE", "VIEW", "TABLE", "TYPE", "SET", "OF",
    ]),
    max_size=15,
).map(" ".join)


class TestEsqlParserFuzz:
    @given(_junk)
    @settings(max_examples=200, deadline=None)
    def test_random_text(self, text):
        try:
            parse_script(text)
        except ReproError:
            pass  # the only acceptable failure mode

    @given(_fragments)
    @settings(max_examples=200, deadline=None)
    def test_keyword_soup(self, text):
        try:
            parse_script(text)
        except ReproError:
            pass


class TestRuleParserFuzz:
    @given(_junk)
    @settings(max_examples=200, deadline=None)
    def test_random_term_text(self, text):
        try:
            parse_term(text)
        except ReproError:
            pass

    @given(_junk)
    @settings(max_examples=200, deadline=None)
    def test_random_rule_text(self, text):
        try:
            parse_rule_text(text)
        except ReproError:
            pass

    @given(st.lists(st.sampled_from(
        ["P(x)", "-->", "/", "ISA(x, T)", ",", "x*", "AND", "F(x)",
         "SEARCH", "(", ")", "1", "'s'"]
    ), max_size=12).map(" ".join))
    @settings(max_examples=200, deadline=None)
    def test_rule_fragment_soup(self, text):
        try:
            parse_rule_text(text)
        except ReproError:
            pass


class TestOneLexer:
    @given(_mixed)
    @settings(max_examples=200, deadline=None)
    def test_tokens_sit_at_their_offsets(self, text):
        for lex in (tokenize_sql, tokenize):
            try:
                tokens = lex(text)
            except ParseError:
                continue  # the only acceptable failure mode
            for tok in tokens:
                before = text[:tok.offset]
                assert tok.line == before.count("\n") + 1
                assert tok.column == tok.offset - before.rfind("\n")
                raw = tok.text
                if tok.kind == "STRING":
                    raw = "'" + raw.replace("'", "''") + "'"
                assert text.startswith(raw, tok.offset)
            assert tokens[-1].offset == len(text)

    @given(_mixed)
    @example("SELECT \u00b2 FROM T")
    @settings(max_examples=200, deadline=None)
    def test_any_text_fails_typed(self, text):
        for parse in (parse_script, parse_term):
            try:
                parse(text)
            except ReproError:
                pass
