"""The ESQL subset's lexical spec, read by the one lexer of
:mod:`repro.lexing`.

Keywords are case-insensitive; identifiers keep their declared case
(attribute names are matched case-insensitively downstream).  Strings
use single quotes with ``''`` escaping; ``--`` starts a comment.
"""

from __future__ import annotations

from repro.lexing import Lexicon

__all__ = ["tokenize_sql", "KEYWORDS"]

KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "AND", "OR", "NOT",
    "UNION", "CREATE", "VIEW", "TABLE", "TYPE", "INSERT", "INTO",
    "VALUES", "ENUMERATION", "OF", "TUPLE", "OBJECT", "SUBTYPE",
    "SET", "BAG", "LIST", "ARRAY", "FUNCTION", "NEW", "TRUE", "FALSE",
    "DROP", "DELETE", "DISTINCT", "IN", "EXISTS", "UPDATE", "HAVING",
    "PRIMARY", "KEY",
})

ESQL = Lexicon(KEYWORDS, [
    ("<=", "OP"), (">=", "OP"), ("<>", "OP"),
    ("(", "LPAREN"), (")", "RPAREN"), (",", "COMMA"), (";", "SEMI"),
    (".", "DOT"), (":", "COLON"), ("=", "OP"), ("<", "OP"), (">", "OP"),
    ("+", "OP"), ("-", "OP"), ("*", "STAR"), ("/", "OP"),
], comment="--")

tokenize_sql = ESQL.tokenize
