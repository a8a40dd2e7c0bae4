"""Key-based semantic optimization: redundant self-join elimination.

A declared PRIMARY KEY is semantic knowledge in the section 6.1 sense:
"properties that are always satisfied on objects, declared by the
user".  When a search joins a base relation with *itself* on the full
key, the second occurrence is the first one by another name -- key
uniqueness (enforced on insert) makes each left row match exactly its
own copy -- so the occurrence is dropped and its references remapped.

Implemented as a native rule (the match must consult the catalog's key
declarations and rebuild numbered references, which is method-call
territory); installed in the semantic block.
"""

from __future__ import annotations

from typing import Optional

from repro.lera import ops
from repro.lera.analysis import map_attrefs
from repro.rules.native import NativeRule
from repro.terms.term import (AttrRef, Const, Term, conj, conjuncts,
                              is_fun, mk_fun)

__all__ = ["SelfJoinEliminationRule", "SemijoinProjectionPruningRule"]


class SemijoinProjectionPruningRule(NativeRule):
    """Drop unused columns of a search feeding a semi/anti join.

    Subquery flattening builds an *identity core* carrying every column
    of the enclosing FROM product; after pushdown only the columns the
    outer projection and the join condition touch are needed.  Merging
    cannot reach through the SEMIJOIN, so this native rule narrows the
    core and renumbers the references above it.
    """

    root_name = "SEARCH"

    def __init__(self, name: str = "semijoin_prune"):
        super().__init__(name)

    def quick_applicable(self, subject: Term) -> bool:
        if not is_fun(subject, "SEARCH"):
            return False
        inputs = ops.rel_list(subject)
        return (
            len(inputs) == 1
            and (is_fun(inputs[0], "SEMIJOIN")
                 or is_fun(inputs[0], "ANTIJOIN"))
            and is_fun(inputs[0].args[0], "SEARCH")
        )

    def apply(self, subject: Term, ctx) -> Optional[tuple[Term, dict]]:
        from repro.lera.analysis import attrefs_of

        if not self.quick_applicable(subject):
            return None
        (semi,) = ops.rel_list(subject)
        outer_qual, outer_items = subject.args[1], ops.proj_items(subject)
        core = semi.args[0]
        right, semi_qual = semi.args[1], semi.args[2]
        core_items = ops.proj_items(core)

        used: set[int] = set()
        for source in (outer_qual, *outer_items):
            used.update(r.pos for r in attrefs_of(source) if r.rel == 1)
        used.update(
            r.pos for r in attrefs_of(semi_qual) if r.rel == 1
        )
        if len(used) >= len(core_items) or not used:
            return None
        kept = sorted(used)
        if any(pos > len(core_items) for pos in kept):
            return None
        renumber = {old: new for new, old in enumerate(kept, start=1)}

        def remap(ref: AttrRef):
            if ref.rel == 1:
                return AttrRef(1, renumber[ref.pos])
            return None

        new_core = ops.search(
            list(ops.rel_list(core)), core.args[1],
            [core_items[pos - 1] for pos in kept],
        )
        new_semi = mk_fun(semi.name, [
            new_core, right, map_attrefs(semi_qual, remap),
        ])
        return ops.search(
            [new_semi],
            map_attrefs(outer_qual, remap),
            [map_attrefs(item, remap) for item in outer_items],
        ), {}


class SelfJoinEliminationRule(NativeRule):
    """Drop a base-relation input joined to its own copy on the key."""

    root_name = "SEARCH"

    def __init__(self, name: str = "key_self_join"):
        super().__init__(name)

    def quick_applicable(self, subject: Term) -> bool:
        return is_fun(subject, "SEARCH")

    def apply(self, subject: Term, ctx) -> Optional[tuple[Term, dict]]:
        if ctx is None or ctx.catalog is None:
            return None
        if not self.quick_applicable(subject):
            return None
        inputs, qual, items = ops.search_parts(subject)
        conjs = set(conjuncts(qual))

        for i in range(len(inputs)):
            for j in range(i + 1, len(inputs)):
                if inputs[i] != inputs[j]:
                    continue
                rel = inputs[i]
                if not isinstance(rel, Const) or rel.kind != "symbol":
                    continue
                key = ctx.catalog.primary_key_of(str(rel.value))
                if not key:
                    continue
                if all(
                    mk_fun("=", [AttrRef(i + 1, k), AttrRef(j + 1, k)])
                    in conjs
                    for k in key
                ):
                    return self._collapse(
                        inputs, qual, items, i + 1, j + 1
                    ), {}
        return None

    @staticmethod
    def _collapse(inputs, qual, items, keep: int, drop: int) -> Term:
        """Remap references from ``drop`` onto ``keep``, renumber the
        inputs behind the dropped one, and rebuild the search."""
        def remap(ref: AttrRef):
            if ref.rel == drop:
                return AttrRef(keep, ref.pos)
            if ref.rel > drop:
                return AttrRef(ref.rel - 1, ref.pos)
            return None

        new_inputs = [r for pos, r in enumerate(inputs, start=1)
                      if pos != drop]
        new_qual = conj([map_attrefs(c, remap) for c in conjuncts(qual)])
        new_items = [map_attrefs(item, remap) for item in items]
        return ops.search(new_inputs, new_qual, new_items)