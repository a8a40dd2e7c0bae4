"""One lexer and one token cursor for the paper's three languages.

ESQL (section 2), the rule language ``lhs / constraints --> rhs /
methods`` (section 4.1) and the ``block`` / ``seq`` meta-rules (section
4.2) share their lexical conventions: blanks and newlines separate
tokens, strings use single quotes with ``''`` escaping, numbers are
decimal digits with an optional fraction, a name is word characters
not starting with a decimal digit, and keywords are case-insensitive.
A :class:`Lexicon` holds what a language adds -- its keywords,
punctuation table, comment marker and extra token shapes -- and
compiles all of it into one master pattern; :meth:`Lexicon.tokenize`
is the one character loop.

Every :class:`Token` carries its 0-based ``offset`` in the source next
to its 1-based ``line`` and ``column``, which always agree, so a parser
can slice the exact text a run of tokens came from.  The :class:`Cursor`
is the recursive-descent plumbing every parser extends, including the
one bound on how deep input may nest.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, NamedTuple, Optional

from repro.errors import NestingTooDeep, ParseError

__all__ = ["Token", "Lexicon", "Cursor", "MAX_NESTING_DEPTH"]

# How deep input may nest: parentheses, function arguments, subqueries,
# NOT / unary-minus chains, parenthesised selects and collection types
# each count one level.  A parser spends up to nine Python frames on a
# level and every later pass recurses over what it builds, so the bound
# sits well inside the interpreter's recursion limit; flat input (a
# 3 000-conjunct AND, a long IN list) is parsed by loops and is not
# nesting.  No shipped rule nests deeper than seven levels.
MAX_NESTING_DEPTH = 64

_NAME = r"[^\W\d]\w*"


class Token(NamedTuple):
    kind: str    # a keyword, IDENT, NUMBER, STRING, a punctuation kind, EOF
    text: str    # as written; a string's text is unquoted and unescaped
    line: int
    column: int
    offset: int


class Lexicon:
    """One language's lexical spec, compiled to one master pattern.

    ``punctuation`` lists ``(literal, kind)`` pairs, a literal before
    any literal it is a prefix of.  ``shapes`` are extra named regex
    alternatives tried before names (a group's name is its token kind;
    the group may cover less than the match, as ``name*`` does).  A
    character that starts no token raises its ``errors`` message, or
    ``unexpected character``.
    """

    def __init__(self, keywords: Iterable[str],
                 punctuation: Iterable[tuple[str, str]], comment: str, *,
                 name: str = _NAME, shapes: Iterable[str] = (),
                 errors: Optional[Mapping[str, str]] = None):
        self.keywords = frozenset(keywords)
        self.punctuation = dict(punctuation)
        self.errors = {"'": "unterminated string", **(errors or {})}
        self._scan = re.compile("|".join((
            r"(?P<_space>[ \t\r\n]+)",
            rf"(?P<_comment>{re.escape(comment)}[^\n]*)",
            r"(?P<STRING>'[^']*(?:''[^']*)*')(?!')",
            r"(?P<NUMBER>\d+(?:\.\d+)?)",
            *shapes,
            rf"(?P<IDENT>{name})",
            "(?P<_punct>" + "|".join(map(re.escape, self.punctuation)) + ")",
            r"(?P<_bad>.)",
        ))).finditer

    def tokenize(self, source: str) -> list[Token]:
        """Split ``source`` into tokens, ending with an EOF token."""
        tokens: list[Token] = []
        append = tokens.append
        new = tuple.__new__
        keywords, punctuation = self.keywords, self.punctuation
        line, line_start = 1, 0
        for match in self._scan(source):
            kind = match.lastgroup
            text = match.group(kind)
            start = match.start()
            if kind == "IDENT":
                upper = text.upper()
                if upper in keywords:
                    kind = upper
            elif kind == "_space":
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
                continue
            elif kind == "_punct":
                kind = punctuation[text]
            elif kind == "_comment":
                continue
            elif kind == "STRING":
                append(new(Token, (kind, text[1:-1].replace("''", "'"),
                                   line, start - line_start + 1, start)))
                if "\n" in text:
                    line += text.count("\n")
                    line_start = start + text.rindex("\n") + 1
                continue
            elif kind == "_bad":
                raise ParseError(
                    self.errors.get(text, f"unexpected character {text!r}"),
                    line, start - line_start + 1,
                )
            append(new(Token, (kind, text, line, start - line_start + 1,
                               start)))
        end = len(source)
        append(Token("EOF", "", line, end - line_start + 1, end))
        return tokens


class Cursor:
    """Recursive-descent plumbing over one token list.

    A parser extends it with its grammar.  ``peek`` past the end keeps
    returning the EOF token, which ``advance`` never moves beyond.
    Every recursive production enters a level with :meth:`nest` and
    leaves it with ``self.depth -= 1`` (inline: a parser that raised is
    thrown away with its count).
    """

    #: how ``expect`` names what it found instead
    found = "{0.kind} ({0.text!r})"
    #: what the nesting bound's error says nested too deep
    unit = "statement"

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.last = len(tokens) - 1
        self.pos = 0
        self.depth = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, self.last)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < self.last:
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {self.found.format(tok)}",
                tok.line, tok.column,
            )
        return self.advance()

    def at_end(self) -> bool:
        return self.tokens[self.pos].kind == "EOF"

    def nest(self) -> None:
        """Enter one level of nesting; past the bound, fail typed."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise self.too_deep(MAX_NESTING_DEPTH)

    def too_deep(self, limit: int) -> NestingTooDeep:
        """The typed error for input nesting past ``limit`` here."""
        tok = self.tokens[self.pos]
        return NestingTooDeep(
            f"{self.unit} nests deeper than {limit} levels "
            f"at line {tok.line}, column {tok.column}",
            "expression", limit, tok.line, tok.column,
        )
