"""The meta-rule language of section 4.2, in its textual form.

The paper gives the concrete syntax::

    block({rules}, value)
    seq((blocks), value)

"The set of rules specifies the rules which are in the block.  The
value is the maximum number of rule applications allowed for the block
[...]  An infinite limit means application up to saturation.  [seq]
defines the order in which the list of blocks in argument must be
applied."

:func:`parse_program` reads a whole optimizer definition::

    block(merge, {search_merge, union_merge}, inf)
    block(clean, {and_false, or_true}, 20)
    seq((merge, clean), 2)

Rule names are resolved against a *rule library* -- a mapping from name
to compiled rule.  :func:`standard_rule_library` collects every built-in
rule; extensions add theirs.  This lets a database implementor
regenerate the whole optimizer from a text file, which is exactly the
paper's "changing block definitions or the list of blocks in the
sequence meta-rule may completely change the generated optimizer".
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.errors import ParseError, RewriteError
from repro.lexing import Cursor
from repro.rules.control import Block, Seq
from repro.terms.parser import tokenize

__all__ = ["parse_program", "standard_rule_library", "program_to_text"]


def standard_rule_library(extra: Iterable = ()) -> dict:
    """Every built-in rule (and any ``extra``), keyed by name."""
    from repro.rules.keys import (SelfJoinEliminationRule,
                                  SemijoinProjectionPruningRule)
    from repro.rules.semantic import (implicit_knowledge_rules,
                                      simplification_rules)
    from repro.rules.syntactic import (canonicalization_rules,
                                       fixpoint_rules, merging_rules,
                                       or_split_rules, permutation_rules,
                                       pruning_rules, semijoin_rules)
    library: dict = {}
    groups = [
        canonicalization_rules(), merging_rules(), permutation_rules(),
        fixpoint_rules(), pruning_rules(), semijoin_rules(),
        or_split_rules(), implicit_knowledge_rules(),
        simplification_rules(),
        [SelfJoinEliminationRule(), SemijoinProjectionPruningRule()],
        list(extra),
    ]
    for group in groups:
        for rule in group:
            library[rule.name] = rule
    return library


class _MetaParser(Cursor):
    """Parses block/seq definitions over the rule-language tokenizer."""

    found = "{0.text!r}"

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind not in ("IDENT", "COLLVAR"):
            raise ParseError(
                f"expected a name, found {tok.text!r}",
                tok.line, tok.column,
            )
        self.advance()
        return tok.text

    def limit(self) -> Optional[int]:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text.upper() in ("INF", "INFINITE"):
            self.advance()
            return None
        if tok.kind == "NUMBER":
            self.advance()
            return int(tok.text)
        raise ParseError(
            f"expected a limit (number or inf), found {tok.text!r}",
            tok.line, tok.column,
        )


def parse_program(source: str, library: Mapping) -> Seq:
    """Parse ``block(...)`` / ``seq(...)`` definitions into a Seq.

    Statements may be separated by ``;`` or newlines.  Every program
    must end with exactly one ``seq``; blocks it references must have
    been defined.  Unknown rule names raise with the available choices.
    """
    parser = _MetaParser(tokenize(source))
    blocks: dict[str, Block] = {}
    seq: Optional[Seq] = None

    while parser.peek().kind != "EOF":
        parser.accept("SEMI")
        if parser.peek().kind == "EOF":
            break
        head = parser.ident().upper()

        if head == "BLOCK":
            parser.expect("LPAREN")
            name = parser.ident()
            parser.expect("COMMA")
            parser.expect("LBRACE")
            rule_names = [parser.ident()]
            while parser.accept("COMMA"):
                rule_names.append(parser.ident())
            parser.expect("RBRACE")
            parser.expect("COMMA")
            value = parser.limit()
            parser.expect("RPAREN")

            rules = []
            for rule_name in rule_names:
                if rule_name not in library:
                    known = ", ".join(sorted(library))
                    raise RewriteError(
                        f"unknown rule {rule_name!r}; the library has: "
                        f"{known}"
                    )
                rules.append(library[rule_name])
            blocks[name] = Block(name, rules, limit=value)
            continue

        if head == "SEQ":
            parser.expect("LPAREN")
            parser.expect("LPAREN")
            block_names = [parser.ident()]
            while parser.accept("COMMA"):
                block_names.append(parser.ident())
            parser.expect("RPAREN")
            parser.expect("COMMA")
            value = parser.limit()
            parser.expect("RPAREN")

            ordered = []
            for block_name in block_names:
                if block_name not in blocks:
                    raise RewriteError(
                        f"seq references undefined block {block_name!r}"
                    )
                ordered.append(blocks[block_name])
            seq = Seq(ordered, passes=(value if value is not None else 1))
            continue

        raise ParseError(
            f"expected 'block' or 'seq', found {head!r}"
        )

    if seq is None:
        raise RewriteError("a meta-rule program must end with a seq(...)")
    return seq


def program_to_text(seq: Seq) -> str:
    """Render a Seq back into the meta-rule syntax (round-trips)."""
    lines = []
    for block in seq.blocks:
        rules = ", ".join(block.rule_names())
        limit = "inf" if block.limit is None else str(block.limit)
        lines.append(f"block({block.name}, {{{rules}}}, {limit})")
    names = ", ".join(b.name for b in seq.blocks)
    lines.append(f"seq(({names}), {seq.passes})")
    return "\n".join(lines)
