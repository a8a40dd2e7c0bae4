"""Native rules: transformations implemented directly in Python.

The paper's escape hatch is the method call -- "complex optimization
problems [...] require external functions programmed in C".  A
:class:`NativeRule` is the same idea one level up: a whole rule whose
matching is procedural.  Native rules expose the exact protocol of
:class:`~repro.rules.rule.RewriteRule` (``name`` / ``quick_applicable``
/ ``apply``) so blocks mix both kinds freely.

Two built-ins:

* :class:`ConstantFoldingRule` -- the generalisation of Figure 12's
  ``F(x, y) / ISA(x, constant), ISA(y, constant) --> a /
  EVALUATE(F(x,y), a)`` to any arity ("if all variables in a criteria
  are bound, it can be useful to apply an evaluation function");
* :class:`DomainConstraintRule` -- the compiled form of the Figure 10
  integrity-constraint rules ``F(x) / ISA(x, T) --> F(x) AND phi(x)``:
  inside a qualification, every subexpression whose type ISA ``T``
  contributes the instantiated constraint ``phi`` as an extra conjunct.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import ReproError
from repro.rules.guards import eval_ground
from repro.rules.methods import value_to_term
from repro.terms.subst import instantiate
from repro.terms.term import (Const, Fun, Term, Var, conj, conjuncts,
                              is_fun, is_ground, walk)

__all__ = ["NativeRule", "ConstantFoldingRule", "DomainConstraintRule"]

_STRUCTURAL = frozenset({
    "LIST", "SET", "AND", "OR", "NOT", "AS", "TUPLE", "MAKESET",
    "MAKEBAG", "MAKELIST", "MAKEARRAY", "MAKETUPLE",
}) | frozenset({
    "SEARCH", "JOIN", "FILTER", "PROJECTION", "UNION", "INTERSECTION",
    "DIFFERENCE", "FIX", "NEST", "UNNEST", "VALUES",
})


class NativeRule:
    """Base class; subclasses implement :meth:`apply`.

    A subclass that only ever fires on one root functor may name it in
    a ``root_name`` class attribute: the block's rule index then offers
    it positions under that functor only.  Without one the rule is
    offered every position and :meth:`quick_applicable` decides.
    """

    def __init__(self, name: str):
        self.name = name

    def quick_applicable(self, subject: Term) -> bool:
        return True

    def apply(self, subject: Term, ctx) -> Optional[tuple[Term, dict]]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class ConstantFoldingRule(NativeRule):
    """Fold any pure registered function applied to constants only."""

    def __init__(self, name: str = "constant_folding"):
        super().__init__(name)

    def quick_applicable(self, subject: Term) -> bool:
        if not isinstance(subject, Fun) or subject.name in _STRUCTURAL \
                or not subject.args:
            return False
        if any(
            isinstance(a, Const) and a.kind == "symbol"
            for a in subject.args
        ):
            return False
        # ground arguments may be nested constructor calls (MAKESET of
        # constants, arithmetic over constants, ...); answered once
        # per node
        return is_ground(subject)

    def apply(self, subject: Term, ctx) -> Optional[tuple[Term, dict]]:
        """Fold ``subject``, which :meth:`quick_applicable` accepted
        (the engine asks it before every ``apply``)."""
        if ctx is None or ctx.catalog is None:
            return None
        registry = ctx.catalog.registry
        fdef = registry.lookup_or_none(subject.name, len(subject.args))
        if fdef is None or not fdef.pure:
            return None
        try:
            value = eval_ground(subject, ctx)
            folded = value_to_term(value)
        except ReproError:
            return None
        if folded == subject:
            return None
        return folded, {}


class DomainConstraintRule(NativeRule):
    """An integrity constraint on a type, added inside qualifications.

    ``template`` is a Boolean term over the single variable ``hole``;
    for each subexpression ``e`` of a conjunction with
    ``type(e) ISA type_name``, the conjunct ``template[hole := e]`` is
    added (the AND constructor deduplicates, so saturation is reached
    once every instance is present).
    """

    def __init__(self, name: str, type_name: str, hole: str,
                 template: Term):
        super().__init__(name)
        self.type_name = type_name.upper()
        self.hole = hole
        self.template = template

    def quick_applicable(self, subject: Term) -> bool:
        # fires on conjunctions and on single Boolean conjuncts (a
        # qualification need not be an AND node); apply() verifies the
        # Boolean typing for the latter
        if not isinstance(subject, Fun):
            return False
        return subject.name == "AND" or subject.name not in _STRUCTURAL

    def _typed_holes(self, subject: Term, ctx) -> Iterator[Term]:
        from repro.lera.schema import infer_type
        if ctx is None or ctx.catalog is None or ctx.schemas is None:
            return
        ts = ctx.catalog.type_system
        target = ts.lookup_or_none(self.type_name)
        if target is None:
            return
        seen = set()
        for conjunct in conjuncts(subject):
            for sub in walk(conjunct):
                if sub in seen or isinstance(sub, (Var,)) or \
                        is_fun(sub, "AND") or is_fun(sub, "OR"):
                    continue
                seen.add(sub)
                if isinstance(sub, Const) and sub.kind == "symbol":
                    continue
                try:
                    inferred = infer_type(sub, ctx.schemas, ctx.catalog)
                except ReproError:
                    continue
                if ts.isa(inferred, target):
                    yield sub

    def _normalize(self, instance: Term, ctx) -> Term:
        """Rewrite the constraint into LERA form (ABS(x) -> PROJECT):
        constraints are declared in user syntax but must line up
        syntactically with the type-checked qualification for the
        substitution and folding rules to connect them."""
        from repro.lera.typecheck import normalize_expression
        try:
            return normalize_expression(instance, ctx.schemas, ctx.catalog)
        except ReproError:
            return instance

    def apply(self, subject: Term, ctx) -> Optional[tuple[Term, dict]]:
        if not self.quick_applicable(subject):
            return None
        if not is_fun(subject, "AND"):
            # a bare conjunct: only extend it when it is Boolean-typed
            from repro.adt.types import BOOLEAN
            from repro.lera.schema import infer_type
            if ctx is None or ctx.catalog is None or ctx.schemas is None:
                return None
            try:
                if infer_type(subject, ctx.schemas, ctx.catalog) != BOOLEAN:
                    return None
            except ReproError:
                return None
        additions = []
        existing = set(conjuncts(subject))
        for hole_expr in self._typed_holes(subject, ctx):
            instance = instantiate(
                self.template, {self.hole: hole_expr}
            )
            instance = self._normalize(instance, ctx)
            if instance not in existing:
                additions.append(instance)
        if not additions:
            return None
        result = conj(list(conjuncts(subject)) + additions)
        if result == subject:
            return None
        return result, {}
