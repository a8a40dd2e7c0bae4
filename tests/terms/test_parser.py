"""Unit tests for the rule-language tokenizer and parser."""

import pytest

from repro.errors import ParseError
from repro.terms.parser import (parse_rule_text, parse_rules_text,
                                parse_term, tokenize)
from repro.terms.term import (AttrRef, CollVar, Const, Fun, Var, boolean,
                              is_fun, mk_fun, num, string, sym)


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("F(x, 1) --> y")]
        assert kinds == ["IDENT", "LPAREN", "IDENT", "COMMA", "NUMBER",
                         "RPAREN", "ARROW", "IDENT", "EOF"]

    def test_collvar_requires_adjacency(self):
        tokens = tokenize("x* x *")
        assert tokens[0].kind == "COLLVAR"
        assert tokens[1].kind == "IDENT"
        assert tokens[2].kind == "STAR"

    def test_attref(self):
        tok = tokenize("#12.3")[0]
        assert tok.kind == "ATTR" and tok.text == "#12.3"

    def test_malformed_attref(self):
        with pytest.raises(ParseError):
            tokenize("#1")
        with pytest.raises(ParseError):
            tokenize("#.2")

    def test_string_escape(self):
        tok = tokenize("'it''s'")[0]
        assert tok.text == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_comment_skipped(self):
        kinds = [t.kind for t in tokenize("x % a comment\n y")]
        assert kinds == ["IDENT", "IDENT", "EOF"]

    def test_line_tracking(self):
        tok = tokenize("x\n  y")[1]
        assert tok.line == 2

    def test_position_after_a_multi_line_string(self):
        tok = tokenize("'a\nb' x")[1]
        assert (tok.line, tok.column, tok.offset) == (2, 4, 6)

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("@")


class TestTermParsing:
    def test_lowercase_is_variable(self):
        assert parse_term("foo") == Var("foo")

    def test_uppercase_is_symbol(self):
        assert parse_term("DOMINATE") == sym("DOMINATE")
        assert parse_term("Point") == sym("POINT")

    def test_literals(self):
        assert parse_term("42") == num(42)
        assert parse_term("4.5") == num(4.5)
        assert parse_term("-3") == num(-3)
        assert parse_term("'abc'") == string("abc")
        assert parse_term("true") == boolean(True)
        assert parse_term("false") == boolean(False)

    def test_attref(self):
        assert parse_term("#2.3") == AttrRef(2, 3)

    def test_collvar(self):
        t = parse_term("LIST(x*)")
        assert t.args[0] == CollVar("x")

    def test_call(self):
        t = parse_term("MEMBER('a', x)")
        assert is_fun(t, "MEMBER")
        assert t.args == (string("a"), Var("x"))

    def test_empty_call(self):
        assert parse_term("LIST()") == mk_fun("LIST", [])

    def test_infix_comparison(self):
        t = parse_term("x > 3")
        assert is_fun(t, ">")

    def test_precedence_and_over_or(self):
        t = parse_term("a OR b AND c")
        assert is_fun(t, "OR")

    def test_parentheses(self):
        t = parse_term("(a OR b) AND c")
        assert is_fun(t, "AND")

    def test_not_forms(self):
        assert is_fun(parse_term("NOT(x)"), "NOT")
        assert is_fun(parse_term("NOT x > 1"), "NOT")

    def test_arithmetic_precedence(self):
        t = parse_term("1 + 2 * 3")
        assert is_fun(t, "+")
        assert is_fun(t.args[1], "*")

    def test_prefix_connective_form(self):
        t = parse_term("AND(q*)")
        assert is_fun(t, "AND")
        assert t.args == (CollVar("q"),)

    def test_unary_minus_on_expression(self):
        t = parse_term("-x")
        assert is_fun(t, "-")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_term("x y")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_term("F(x")


class TestRuleParsing:
    def test_full_rule(self):
        rule = parse_rule_text(
            "r1: P(x) / ISA(x, Point) --> Q(x) / EVALUATE(P(x), a)"
        )
        assert rule.name == "r1"
        assert is_fun(rule.lhs, "P")
        assert len(rule.constraints) == 1
        assert is_fun(rule.rhs, "Q")
        assert len(rule.methods) == 1

    def test_anonymous_rule(self):
        rule = parse_rule_text("P(x) / --> Q(x) /")
        assert rule.name is None

    def test_empty_sections(self):
        rule = parse_rule_text("P(x) --> Q(x)")
        assert rule.constraints == ()
        assert rule.methods == ()

    def test_multiple_constraints_and_methods(self):
        rule = parse_rule_text(
            "P(x, y) / ISA(x, T), x > 0 --> Q(z) / M(x, z), N(y, w)"
        )
        assert len(rule.constraints) == 2
        assert len(rule.methods) == 2

    def test_multiple_rules(self):
        rules = parse_rules_text("a: P(x) --> Q(x); b: R(y) --> S(y);")
        assert [r.name for r in rules] == ["a", "b"]

    def test_paper_search_merging_rule_parses(self):
        """F6: the Figure 7 search-merging rule round-trips."""
        rule = parse_rule_text(
            "SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a) / "
            "--> SEARCH(APPEND(x*, v*, z), f2 AND g2, a2) / "
            "SUBSTITUTE(f, z, f2), SUBSTITUTE(a, z, a2), SHIFT(g, z, g2)"
        )
        assert is_fun(rule.lhs, "SEARCH")
        assert len(rule.methods) == 3

    def test_paper_union_merging_rule_parses(self):
        rule = parse_rule_text(
            "UNION(SET(x*, UNION(z))) / --> UNION(SET_UNION(x*, z)) /"
        )
        assert is_fun(rule.lhs, "UNION")

    def test_paper_integrity_constraint_parses(self):
        rule = parse_rule_text(
            "F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0 /"
        )
        assert is_fun(rule.rhs, "AND")

    def test_paper_transitivity_rule_parses(self):
        rule = parse_rule_text(
            "x = y AND y = z / --> x = y AND y = z AND x = z /"
        )
        assert is_fun(rule.lhs, "AND")
        assert len(rule.rhs.args) == 3

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_rule_text("P(x) / Q(x)")
