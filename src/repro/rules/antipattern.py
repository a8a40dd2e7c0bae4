"""The anti-pattern rewrite block: cleaning up human-written queries.

Query anti-patterns -- OR chains over one column, redundant DISTINCT,
double negation, arithmetic no-ops -- are exactly the "bad but
equivalent" shapes a rule-based rewriter exists to repair, and every
rule here is written in the paper's Figure 6 rule language (plus one
native rule that must consult the catalog's key declarations).

The block is **optional** (``Database(antipattern=True)`` installs it
before ``simplify``) and every rule in it is guarded by the
``repro.qa`` differential harness: the fuzz generators are biased
toward precisely these shapes, and a rule confirmed to change an
answer is auto-quarantined through the resilience policy
(see :mod:`repro.resilience.quarantine`).

Rule families
-------------
* **OR-chain -> IN**: ``x = c1 OR x = c2 [OR ...]`` collapses into
  ``MEMBER(x, MAKESET(c1, c2, ...))`` -- one membership probe instead
  of a disjunction scan (and the IN-list form other rules target);
* **redundant DISTINCT**: ``DISTINCT`` over a search that already
  projects a declared key of every (keyed, base) input is the
  identity; the right side of a semi/antijoin never needs one at all;
* **double negation / negated comparisons**: ``NOT(NOT f)`` and
  ``NOT`` over comparisons fold away (the NNF subset most frequently
  produced by query generators and ORMs);
* **trivial predicates**: ``x + 0``, ``x * 1``, ``x - 0`` fold;
  bound pairs over one operand collapse (``x > k OR x >= k``).
"""

from __future__ import annotations

from typing import Optional

from repro.lera import ops
from repro.rules.control import Block
from repro.rules.native import NativeRule
from repro.rules.rule import RewriteRule, rules_from_texts
from repro.terms.term import AttrRef, Const, Term, is_fun

__all__ = ["antipattern_rules", "antipattern_block",
           "RedundantDistinctEliminationRule"]


class RedundantDistinctEliminationRule(NativeRule):
    """Drop a DISTINCT whose input is already duplicate-free.

    Sound when every input of the search below is a *keyed base
    table* and the projection carries the full declared key of every
    input as plain attribute references: key uniqueness makes each
    combination of input rows unique, and keeping every key column
    keeps the projected rows unique.  Also fires on ``DISTINCT`` over
    a bare keyed base table.
    """

    root_name = "DISTINCT"

    def __init__(self, name: str = "ap_distinct_key"):
        super().__init__(name)

    def quick_applicable(self, subject: Term) -> bool:
        return is_fun(subject, "DISTINCT")

    def apply(self, subject: Term, ctx) -> Optional[tuple[Term, dict]]:
        if ctx is None or ctx.catalog is None:
            return None
        if not self.quick_applicable(subject):
            return None
        child = subject.args[0]
        if self._keyed_base(child, ctx) is not None:
            return child, {}
        if not is_fun(child, "SEARCH"):
            return None
        inputs, __qual, items = ops.search_parts(child)
        projected = set()
        for item in items:
            expr = ops.item_expr(item)  # sheds any AS(...) label
            if isinstance(expr, AttrRef):
                projected.add((expr.rel, expr.pos))
        for rel_index, rel in enumerate(inputs, start=1):
            key = self._keyed_base(rel, ctx)
            if key is None:
                return None
            if not all((rel_index, pos) in projected for pos in key):
                return None
        return child, {}

    @staticmethod
    def _keyed_base(term: Term, ctx) -> Optional[tuple]:
        """The declared key positions of a base-table input, or None."""
        if not (isinstance(term, Const) and term.kind == "symbol"):
            return None
        key = ctx.catalog.primary_key_of(str(term.value))
        return tuple(key) if key else None


def antipattern_rules() -> list[RewriteRule]:
    texts = [
        # -- OR-chain -> IN ------------------------------------------------
        # two equalities over one operand seed the set; further arms
        # extend it; two sets over one operand merge; a one-element set
        # unfolds back to the equality it is
        "ap_or_to_in: "
        "x = c1 OR x = c2 / ISA(c1, CONSTANT), ISA(c2, CONSTANT) "
        "--> MEMBER(x, MAKESET(c1, c2)) /",
        "ap_in_extend: "
        "x = c1 OR MEMBER(x, MAKESET(e*)) / ISA(c1, CONSTANT) "
        "--> MEMBER(x, MAKESET(c1, e*)) /",
        "ap_in_merge: "
        "MEMBER(x, MAKESET(e*)) OR MEMBER(x, MAKESET(d*)) / "
        "--> MEMBER(x, MAKESET(e*, d*)) /",
        "ap_member_singleton: MEMBER(x, MAKESET(y)) / --> x = y /",
        # -- EXISTS simplification ----------------------------------------
        # a semi/antijoin keeps (or drops) left rows on match
        # *existence*; duplicate elimination on the right changes
        # nothing it can observe
        "ap_semijoin_distinct: "
        "SEMIJOIN(z, DISTINCT(w), g) / --> SEMIJOIN(z, w, g) /",
        "ap_antijoin_distinct: "
        "ANTIJOIN(z, DISTINCT(w), g) / --> ANTIJOIN(z, w, g) /",
        # -- double negation / negated comparisons ------------------------
        "ap_not_not: NOT(NOT(f)) / --> f /",
        "ap_not_gt: NOT(x > y) / --> y >= x /",
        "ap_not_ge: NOT(x >= y) / --> y > x /",
        "ap_not_eq: NOT(x = y) / --> x <> y /",
        "ap_not_neq: NOT(x <> y) / --> x = y /",
        # -- trivial arithmetic -------------------------------------------
        # + and * are not canonically ordered (only = and <> are), so
        # both orientations are spelled out
        "ap_plus_zero_r: x + 0 / --> x /",
        "ap_plus_zero_l: 0 + x / --> x /",
        "ap_times_one_r: x * 1 / --> x /",
        "ap_times_one_l: 1 * x / --> x /",
        "ap_minus_zero: x - 0 / --> x /",
        # -- subsumed bounds over one operand -----------------------------
        "ap_gt_ge_or: x > y OR x >= y / --> x >= y /",
        "ap_gt_ge_and: x > y AND x >= y / --> x > y /",
    ]
    rules: list[RewriteRule] = rules_from_texts(texts)
    rules.append(RedundantDistinctEliminationRule())
    return rules


def antipattern_block() -> Block:
    """The optional ``antipattern`` block (installed before
    ``simplify`` so folded predicates still reach contradiction
    detection and pruning)."""
    return Block("antipattern", antipattern_rules())
