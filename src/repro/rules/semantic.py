"""The semantic rewriting rule library (paper section 6).

Three families:

* **implicit semantic knowledge** (Figure 11): algebraic properties of
  the privileged predicates -- transitivity of ``=`` and ``INCLUDE``,
  equality substitution, membership propagation through inclusion.
  These rules *add* entailed conjuncts ("the addition of semantic
  knowledge to queries may be useful to further simplify predicates");
* **predicate simplification** (Figure 12): contradiction detection,
  Boolean absorption, comparison normalisation and constant folding.
  These rules *shrink* the qualification, ideally to ``false`` when an
  inconsistency was exposed;
* **integrity constraints** (Figure 10): declared by the database
  administrator in the same rule language (``F(x) / ISA(x, T) -->
  F(x) AND phi(x)``) and compiled into domain-constraint rules.

Orientation convention: ``<`` and ``<=`` are rewritten to the flipped
``>`` / ``>=`` forms, and the commutative ``=`` / ``<>`` have canonically
ordered operands (a term-constructor normalisation), so each semantic
pattern needs only one orientation.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import RuleError
from repro.rules.native import ConstantFoldingRule, DomainConstraintRule
from repro.rules.rule import RewriteRule, rules_from_texts
from repro.terms.parser import parse_rule_text
from repro.terms.term import (FUNVARS, Fun, Term, Var, conjuncts, is_fun)

__all__ = [
    "implicit_knowledge_rules", "simplification_rules",
    "compile_integrity_constraint", "figure10_constraints",
]


def implicit_knowledge_rules() -> list[RewriteRule]:
    """Figure 11: transitivity, substitution, inclusion reasoning."""
    texts = [
        # (1) transitivity of operations
        "eq_transitivity: "
        "x = y AND y = z / --> x = y AND y = z AND x = z /",
        "include_transitivity: "
        "INCLUDE(x, y) AND INCLUDE(y, z) / "
        "ISA(x, Collection), ISA(y, Collection), ISA(z, Collection) "
        "--> INCLUDE(x, y) AND INCLUDE(y, z) AND INCLUDE(x, z) /",
        "gt_transitivity: "
        "x > y AND y > z / --> x > y AND y > z AND x > z /",
        # (2) equality substitution, for both orientations and both
        # argument positions of binary predicates
        "eq_subst_1x: x = y AND F(x) / --> x = y AND F(x) AND F(y) /",
        "eq_subst_1y: x = y AND F(y) / --> x = y AND F(y) AND F(x) /",
        "eq_subst_2ax: "
        "x = y AND F(x, w) / --> x = y AND F(x, w) AND F(y, w) /",
        "eq_subst_2ay: "
        "x = y AND F(y, w) / --> x = y AND F(y, w) AND F(x, w) /",
        "eq_subst_2bx: "
        "x = y AND F(w, x) / --> x = y AND F(w, x) AND F(w, y) /",
        "eq_subst_2by: "
        "x = y AND F(w, y) / --> x = y AND F(w, y) AND F(w, x) /",
        # membership propagates through inclusion (drives the paper's
        # MEMBER('Cartoon', ...) inconsistency example)
        "member_include: "
        "MEMBER(e, x) AND INCLUDE(y, x) / "
        "--> MEMBER(e, x) AND INCLUDE(y, x) AND MEMBER(e, y) /",
    ]
    return rules_from_texts(texts)


def simplification_rules() -> list:
    """Figure 12: normalisation, contradictions, folding."""
    texts = [
        # orientation normalisation (terminating: each application
        # removes one < / <= symbol)
        "lt_flip: x < y / --> y > x /",
        "le_flip: x <= y / --> y >= x /",
        # reflexivity
        "gt_irreflexive: x > x / --> false /",
        "ge_reflexive: x >= x / --> true /",
        "eq_reflexive: x = x / --> true /",
        "neq_irreflexive: x <> x / --> false /",
        # Boolean absorption (the AND/OR constructors already drop
        # neutral elements and duplicates)
        "and_false: f AND false / --> false /",
        "or_true: f OR true / --> true /",
        "not_true: NOT(true) / --> false /",
        "not_false: NOT(false) / --> true /",
        "not_not: NOT(NOT(f)) / --> f /",
        # negation normal form: push NOT through the connectives and
        # flip negated comparisons (each application removes a NOT or
        # moves it over a strictly smaller operand -- terminating)
        "not_over_and: "
        "NOT(AND(f, g*)) / NONEMPTY(g*) --> NOT(f) OR NOT(AND(g*)) /",
        "not_over_or: "
        "NOT(OR(f, g*)) / NONEMPTY(g*) --> NOT(f) AND NOT(OR(g*)) /",
        "not_gt: NOT(x > y) / --> y >= x /",
        "not_ge: NOT(x >= y) / --> y > x /",
        "not_eq: NOT(x = y) / --> x <> y /",
        "not_neq: NOT(x <> y) / --> x = y /",
        # absorption and complements
        "or_absorb: f OR AND(f, g*) / NONEMPTY(g*) --> f /",
        "and_absorb: f AND OR(f, g*) / NONEMPTY(g*) --> f /",
        "and_complement: f AND NOT(f) / --> false /",
        "or_complement: f OR NOT(f) / --> true /",
        # unit resolution: a conjunct falsifies its complement inside a
        # sibling disjunction
        "unit_not: f AND OR(NOT(f), g*) / --> f AND OR(g*) /",
        "unit_eq: x = y AND OR(x <> y, g*) / --> x = y AND OR(g*) /",
        "unit_neq: x <> y AND OR(x = y, g*) / --> x <> y AND OR(g*) /",
        "unit_gt: x > y AND OR(y >= x, g*) / --> x > y AND OR(g*) /",
        "unit_ge: x >= y AND OR(y > x, g*) / --> x >= y AND OR(g*) /",
        # contradictions between conjuncts
        "gt_antisym: x > y AND y > x / --> false /",
        "gt_eq_clash_a: x > y AND x = y / --> false /",
        "gt_eq_clash_b: x > y AND y = x / --> false /",
        "eq_neq_clash: x = y AND x <> y / --> false /",
        "ge_gt_clash: x >= y AND y > x / --> false /",
        # strengthening between constant bounds
        "gt_tighten: "
        "x > y AND x > z / ISA(y, CONSTANT), ISA(z, CONSTANT), y >= z "
        "--> x > y /",
        "ge_antisym_to_eq: x >= y AND y >= x / --> x = y /",
        # arithmetic normalisation (paper: x - y = 0 --> x = y)
        "minus_zero: x - y = 0 / --> x = y /",
    ]
    rules: list = rules_from_texts(texts)
    # generic constant folding (the EVALUATE rule of Figure 12,
    # generalised to any arity as a native rule)
    rules.append(ConstantFoldingRule())
    return rules


def compile_integrity_constraint(source: str) -> DomainConstraintRule:
    """Compile a Figure 10 integrity-constraint rule.

    Expected shape::

        name: F(x) / ISA(x, TypeName) --> F(x) AND phi(x) /

    where ``F`` is a generic function symbol.  The compiled form is a
    :class:`DomainConstraintRule` adding ``phi(e)`` for every
    subexpression ``e`` of a qualification whose type ISA ``TypeName``.
    """
    parsed = parse_rule_text(source)
    lhs, rhs = parsed.lhs, parsed.rhs

    if not (isinstance(lhs, Fun) and lhs.name in FUNVARS
            and len(lhs.args) == 1 and isinstance(lhs.args[0], Var)):
        raise RuleError(
            "an integrity constraint must have the shape "
            "F(x) / ISA(x, T) --> F(x) AND phi(x)"
        )
    hole = lhs.args[0].name

    type_name: Optional[str] = None
    for c in parsed.constraints:
        if is_fun(c, "ISA") and len(c.args) == 2 and \
                isinstance(c.args[0], Var) and c.args[0].name == hole:
            type_name = str(c.args[1].value)  # type: ignore[union-attr]
            break
    if type_name is None:
        raise RuleError(
            "an integrity constraint needs an ISA(x, T) condition"
        )

    if not is_fun(rhs, "AND"):
        raise RuleError(
            "the right-hand side of an integrity constraint must be "
            "F(x) AND phi(x)"
        )
    additions = [c for c in conjuncts(rhs) if c != lhs]
    if len(additions) != len(conjuncts(rhs)) - 1 or not additions:
        raise RuleError(
            "the right-hand side of an integrity constraint must be "
            "F(x) AND phi(x)"
        )

    template = additions[0] if len(additions) == 1 else Fun(
        "AND", tuple(additions)
    )
    name = parsed.name or f"ic_{type_name.lower()}"
    return DomainConstraintRule(name, type_name, hole, template)


def figure10_constraints() -> list[DomainConstraintRule]:
    """The three integrity constraints of Figure 10, as compiled rules.

    They assume the Figure 2 schema (Point, Category, SetCategory) is in
    the catalog; the enumeration constraint is expressed with MEMBER /
    INCLUDE over a MAKESET of the enumeration literals.
    """
    category_set = ("MAKESET('Comedy', 'Adventure', "
                    "'Science Fiction', 'Western')")
    sources = [
        "ic_point_abs: F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0 /",
        "ic_point_ord: F(x) / ISA(x, Point) --> F(x) AND ORD(x) > 0 /",
        f"ic_category: F(x) / ISA(x, Category) "
        f"--> F(x) AND MEMBER(x, {category_set}) /",
        f"ic_set_category: F(x) / ISA(x, SetCategory) "
        f"--> F(x) AND INCLUDE({category_set}, x) /",
    ]
    return [compile_integrity_constraint(s) for s in sources]
