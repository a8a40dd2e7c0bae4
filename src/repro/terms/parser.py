"""Parser for the rule language of Figure 6.

Concrete syntax (one rule)::

    [name :] lhs / constraint, ... --> rhs / method(...), ...

with both ``/`` sections optional.  Terms::

    SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a)
    x = y AND y = z
    MEMBER('Adventure', #2.3)
    ISA(x, Point)

Lexical conventions (the spec :data:`RULES` hands to the one lexer of
:mod:`repro.lexing`, which the meta-rule language of
:mod:`repro.rules.meta` reads too; divergences from the paper's typeset
syntax are noted in the printer module):

* an all-lowercase identifier is a variable (the paper's ``u`` ... ``z``,
  generalised to whole words);
* ``ident*`` (no space before the star) is a collection variable;
* any identifier directly followed by ``(`` is a function application,
  whatever its case;
* other identifiers (``Point``, ``DOMINATE``, ``CONSTANT``) are symbol
  constants -- they name types, relations and atoms;
* ``#i.j`` is an attribute reference;
* ``/`` is reserved as the section separator, so division inside rule
  text must be written ``DIV(x, y)``;
* keywords (case-insensitive): AND OR NOT TRUE FALSE.

Several rules may be given in one string, separated by ``;``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ParseError
from repro.lexing import Cursor, Lexicon, Token
from repro.terms.term import (AttrRef, CollVar, Const, Term, Var, boolean,
                              mk_fun, num, string, sym)

__all__ = ["Token", "tokenize", "parse_term", "parse_rule_text",
           "parse_rules_text", "ParsedRule"]

# '$' continues a name: generated names such as TC$MAGIC1 must
# round-trip through the printer
_NAME = r"[^\W\d][\w$]*"

RULES = Lexicon({"AND", "OR", "NOT", "TRUE", "FALSE"}, [
    ("-->", "ARROW"),
    ("<=", "OP"), (">=", "OP"), ("<>", "OP"),
    ("(", "LPAREN"), (")", "RPAREN"), ("{", "LBRACE"), ("}", "RBRACE"),
    (",", "COMMA"), (";", "SEMI"), ("/", "SLASH"), (":", "COLON"),
    ("=", "OP"), ("<", "OP"), (">", "OP"),
    ("+", "OP"), ("-", "OP"), ("*", "STAR"),
], comment="%", name=_NAME, shapes=(
    r"(?P<ATTR>#\d+\.\d+)",
    rf"(?P<COLLVAR>{_NAME})\*",
), errors={"#": "malformed attribute reference"})

tokenize = RULES.tokenize


@dataclass
class ParsedRule:
    """The syntactic pieces of one rule, before compilation."""

    name: Optional[str]
    lhs: Term
    constraints: tuple[Term, ...]
    rhs: Term
    methods: tuple[Term, ...]


class _Parser(Cursor):
    """Recursive-descent parser over a token list."""

    unit = "term"

    # -- grammar ---------------------------------------------------------
    def parse_rule(self) -> ParsedRule:
        name = None
        if (self.peek().kind == "IDENT"
                and self.peek(1).kind == "COLON"):
            name = self.advance().text
            self.advance()

        lhs = self.parse_term()
        constraints: tuple[Term, ...] = ()
        if self.accept("SLASH"):
            constraints = self._parse_term_list(stop_kinds=("ARROW",))
        self.expect("ARROW")
        rhs = self.parse_term()
        methods: tuple[Term, ...] = ()
        if self.accept("SLASH"):
            methods = self._parse_term_list(stop_kinds=("SEMI", "EOF"))
        return ParsedRule(name, lhs, constraints, rhs, methods)

    def _parse_term_list(self, stop_kinds: tuple) -> tuple[Term, ...]:
        if self.peek().kind in stop_kinds:
            return ()
        items = [self.parse_term()]
        while self.accept("COMMA"):
            items.append(self.parse_term())
        return tuple(items)

    def parse_term(self) -> Term:
        self.nest()
        term = self._or_expr()
        self.depth -= 1
        return term

    def _or_expr(self) -> Term:
        left = self._and_expr()
        parts = [left]
        while self.accept("OR"):
            parts.append(self._and_expr())
        if len(parts) == 1:
            return left
        return mk_fun("OR", parts)

    def _and_expr(self) -> Term:
        left = self._not_expr()
        parts = [left]
        while self.accept("AND"):
            parts.append(self._not_expr())
        if len(parts) == 1:
            return left
        return mk_fun("AND", parts)

    def _not_expr(self) -> Term:
        if self.accept("NOT"):
            if self.accept("LPAREN"):
                inner = self.parse_term()
                self.expect("RPAREN")
            else:
                self.nest()
                inner = self._not_expr()
                self.depth -= 1
            return mk_fun("NOT", [inner])
        return self._comparison()

    def _comparison(self) -> Term:
        left = self._additive()
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ("=", "<>", "<", ">", "<=", ">="):
            self.advance()
            right = self._additive()
            return mk_fun(tok.text, [left, right])
        return left

    def _additive(self) -> Term:
        left = self._multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in ("+", "-"):
                self.advance()
                right = self._multiplicative()
                left = mk_fun(tok.text, [left, right])
            else:
                return left

    def _multiplicative(self) -> Term:
        left = self._atom()
        while self.peek().kind == "STAR":
            self.advance()
            right = self._atom()
            left = mk_fun("*", [left, right])
        return left

    def _atom(self) -> Term:
        tok = self.peek()

        # prefix connective form: AND(t1, ..., tn) / OR(t1, ..., tn) --
        # needed to splice collection variables into conjunctions
        if tok.kind in ("AND", "OR") and self.peek(1).kind == "LPAREN":
            self.advance()
            self.expect("LPAREN")
            args: list[Term] = []
            if self.peek().kind != "RPAREN":
                args.append(self.parse_term())
                while self.accept("COMMA"):
                    args.append(self.parse_term())
            self.expect("RPAREN")
            return mk_fun(tok.kind, args)

        if tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_term()
            self.expect("RPAREN")
            return inner

        if tok.kind == "NUMBER":
            self.advance()
            if "." in tok.text:
                return num(float(tok.text))
            return num(int(tok.text))

        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            self.nest()
            operand = self._atom()
            self.depth -= 1
            if isinstance(operand, Const) and operand.kind in ("int", "real"):
                return num(-operand.value)
            return mk_fun("-", [num(0), operand])

        if tok.kind == "STRING":
            self.advance()
            return string(tok.text)

        if tok.kind == "TRUE":
            self.advance()
            return boolean(True)

        if tok.kind == "FALSE":
            self.advance()
            return boolean(False)

        if tok.kind == "ATTR":
            self.advance()
            rel_text, pos_text = tok.text[1:].split(".")
            return AttrRef(int(rel_text), int(pos_text))

        if tok.kind == "COLLVAR":
            self.advance()
            return CollVar(tok.text)

        if tok.kind == "IDENT":
            self.advance()
            if self.accept("LPAREN"):
                args: list[Term] = []
                if self.peek().kind != "RPAREN":
                    args.append(self.parse_term())
                    while self.accept("COMMA"):
                        args.append(self.parse_term())
                self.expect("RPAREN")
                return mk_fun(tok.text, args)
            if tok.text.islower():
                return Var(tok.text)
            return sym(tok.text.upper())

        raise ParseError(
            f"unexpected token {tok.kind} ({tok.text!r})",
            tok.line, tok.column,
        )


def parse_term(source: str) -> Term:
    """Parse a single term from ``source``."""
    parser = _Parser(tokenize(source))
    term = parser.parse_term()
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(
            f"trailing input after term: {tok.text!r}", tok.line, tok.column
        )
    return term


def parse_rule_text(source: str) -> ParsedRule:
    """Parse one rule from ``source``."""
    parser = _Parser(tokenize(source))
    rule = parser.parse_rule()
    parser.accept("SEMI")
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(
            f"trailing input after rule: {tok.text!r}", tok.line, tok.column
        )
    return rule


def parse_rules_text(source: str) -> list[ParsedRule]:
    """Parse a ``;``-separated sequence of rules."""
    parser = _Parser(tokenize(source))
    rules: list[ParsedRule] = []
    while not parser.at_end():
        rules.append(parser.parse_rule())
        if not parser.accept("SEMI"):
            break
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(
            f"trailing input after rules: {tok.text!r}", tok.line, tok.column
        )
    return rules
