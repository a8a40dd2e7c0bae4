"""ESQL front end: lexer, parser, AST and the translator to LERA."""

from repro.esql.lexer import tokenize_sql
from repro.esql.parser import (parse_expression, parse_query, parse_script,
                               parse_statement)
from repro.esql.translate import Translator

__all__ = [
    "tokenize_sql",
    "parse_expression", "parse_query", "parse_script", "parse_statement",
    "Translator",
]
