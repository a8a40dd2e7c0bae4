"""Constraint evaluation for rule conditions (section 4.1).

A constraint is a Boolean term evaluated under the match binding.  The
evaluator supports:

* the ``ISA`` subtyping predicate: ``ISA(x, T)`` holds when the matched
  term ``x`` *denotes* a value whose type is (a subtype of) ``T``.
  ``ISA(x, CONSTANT)`` tests for literal constants -- the form used by
  the Figure 12 simplification rules.  Typing an attribute reference
  uses the input schemas of the operator the rule fired in (provided by
  the rewrite engine through the :class:`RuleContext`);
* external Boolean functions such as ``REFER`` (Figure 8), looked up in
  an extensible predicate table;
* comparisons between ground terms, evaluated through the ADT function
  registry (so any registered pure function may appear in a condition);
* the connectives NOT / AND / OR.

A constraint that cannot be decided (unbound variable, untypable
expression) is *false*: the rule simply does not fire, which is the safe
behaviour for an optimizer.
"""

from __future__ import annotations

from typing import Optional

from repro.adt.types import CollectionType, DataType
from repro.errors import ConstraintError, ReproError
from repro.lera.analysis import attrefs_of
from repro.lera.schema import infer_type, schema_of
from repro.rules.guards import (Check, Predicate, compile_constraint,
                                eval_ground)
from repro.terms.term import (TRUE, AttrRef, Const, Fun, Seq, Term,
                              is_ground)

__all__ = ["ConstraintEvaluator", "isa_predicate", "refer_predicate",
           "nonempty_predicate"]

_COLLECTION_KIND_NAMES = {"COLLECTION", "SET", "BAG", "LIST", "ARRAY"}


def _type_of_term(term: Term, ctx) -> Optional[DataType]:
    """Best-effort type of a matched term, using the context schemas."""
    if isinstance(term, Const):  # typed without schemas or catalog
        return infer_type(term, (), None)
    if ctx is None or ctx.catalog is None or ctx.schemas is None:
        return None
    try:
        return infer_type(term, ctx.schemas, ctx.catalog)
    except ReproError:
        return None


def isa_predicate(args: list, binding: dict, ctx) -> bool:
    """ISA(x, T): subtype test, with ISA(x, CONSTANT) testing literals."""
    if len(args) != 2:
        raise ConstraintError("ISA expects two arguments")
    subject, type_term = args
    if isinstance(subject, Seq) or isinstance(type_term, Seq):
        return False
    if not isinstance(type_term, Const) or type_term.kind != "symbol":
        return False
    type_name = str(type_term.value).upper()

    if type_name == "CONSTANT":
        return isinstance(subject, Const) and subject.kind != "symbol"

    inferred = _type_of_term(subject, ctx)
    if inferred is None:
        return False

    if type_name in _COLLECTION_KIND_NAMES:
        if not isinstance(inferred, CollectionType):
            return False
        return type_name == "COLLECTION" or inferred.kind == type_name

    if ctx is None or ctx.catalog is None:
        return False
    ts = ctx.catalog.type_system
    target = ts.lookup_or_none(type_name)
    if target is None:
        return False
    return ts.isa(inferred, target)


def refer_predicate(args: list, binding: dict, ctx) -> bool:
    """REFER(a, quali*): the conjuncts quali* only reference the non-nested
    attributes of the NEST operand (Figure 8).

    ``a`` is the NEST's nested-attribute list; the NEST's position in the
    enclosing SEARCH is ``len(x*) + 1`` (read from the binding).  The
    predicate holds when quali* is non-empty and every attribute
    reference points at the NEST relation and at an output position
    strictly before the nested collection attribute.  The
    search-through-union rule asks with ``LIST()`` (through the
    ``REFER_SPLIT`` method): a UNION nests nothing, so every reference
    to its position qualifies.
    """
    if len(args) != 2:
        raise ConstraintError("REFER expects two arguments")
    __, quali = args
    conjs = list(quali.items) if isinstance(quali, Seq) else [quali]
    if not conjs:
        return False

    x_star = binding.get("*x")
    position = (len(x_star.items) if isinstance(x_star, Seq) else 0) + 1

    kept_count = None
    z = binding.get("z")
    a = binding.get("a")
    if z is not None and a is not None and ctx is not None \
            and ctx.catalog is not None:
        try:
            width = len(schema_of(z, ctx.catalog, ctx.fix_env))
            nested = len(a.args) if isinstance(a, Fun) else 1
            kept_count = width - nested
        except ReproError:
            return False

    any_refs = False
    for c in conjs:
        refs = attrefs_of(c)
        if not refs:
            continue
        any_refs = True
        for ref in refs:
            if ref.rel != position:
                return False
            if kept_count is not None and ref.pos > kept_count:
                return False
    # pushing a qualification with no attribute references is pointless
    # and would make the rule fire forever
    return any_refs


def nest_trailing_predicate(args: list, binding: dict, ctx) -> bool:
    """NEST_TRAILING(z, a, x): the NEST collects the single trailing
    column of z and the UNNEST flattens exactly that collection -- the
    case where UNNEST(NEST(z)) is z again (set semantics)."""
    if len(args) != 3:
        raise ConstraintError("NEST_TRAILING expects three arguments")
    z, a, x = args
    if isinstance(z, Seq) or not isinstance(a, Fun) or a.name != "LIST":
        return False
    if len(a.args) != 1 or not isinstance(a.args[0], AttrRef):
        return False
    if not isinstance(x, AttrRef) or x.rel != 1:
        return False
    if ctx is None or ctx.catalog is None:
        return False
    try:
        width = len(schema_of(z, ctx.catalog,
                              getattr(ctx, "fix_env", {})))
    except ReproError:
        return False
    nested = a.args[0]
    return nested.rel == 1 and nested.pos == width and x.pos == width


def member_predicate(args: list, binding: dict, ctx) -> bool:
    """MEMBER(y, x*): constraint-level membership.

    When the second argument is a collection-variable binding the test
    is *syntactic* membership of the matched term (the paper's
    ``F(SET(x*, G(y, f))) / MEMBER(y, x*) ...`` example); when both
    arguments are ground the ADT MEMBER function decides.
    """
    if len(args) != 2:
        raise ConstraintError("MEMBER expects two arguments")
    element, collection = args
    if isinstance(collection, Seq):
        return element in collection.items
    if isinstance(element, Seq):
        return False
    probe = Fun("MEMBER", (element, collection))
    if not is_ground(probe):
        return False
    return bool(eval_ground(probe, ctx))


def nontrue_predicate(args: list, binding: dict, ctx) -> bool:
    """NONTRUE(f): the matched qualification is not the constant true
    (guards rules that would otherwise wrap operators forever)."""
    if len(args) != 1:
        raise ConstraintError("NONTRUE expects one argument")
    return args[0] != TRUE


def nonempty_predicate(args: list, binding: dict, ctx) -> bool:
    """NONEMPTY(x*): the collection variable matched at least one term."""
    if len(args) != 1:
        raise ConstraintError("NONEMPTY expects one argument")
    value = args[0]
    if isinstance(value, Seq):
        return len(value.items) > 0
    return True  # a single term is a non-empty match


class ConstraintEvaluator:
    """Evaluates constraint terms; extensible with new predicates.
    A constraint is compiled once into a closure (the predicate looked
    up, one builder per argument); registering a predicate drops the
    closures, so it reaches rules that were built before it."""

    def __init__(self):
        self._predicates: dict[str, Predicate] = {
            "ISA": isa_predicate,
            "REFER": refer_predicate,
            "NONEMPTY": nonempty_predicate,
            "NONTRUE": nontrue_predicate,
            "NEST_TRAILING": nest_trailing_predicate,
            "MEMBER": member_predicate,
        }
        self._compiled: dict[Term, Check] = {}

    def register(self, name: str, predicate: Predicate) -> None:
        self._predicates[name.upper()] = predicate
        self._compiled = {}

    def knows(self, name: str) -> bool:
        return name.upper() in self._predicates

    def holds(self, constraint: Term, binding: dict, ctx) -> bool:
        """True when ``constraint`` holds under ``binding``."""
        return self.compile(constraint)(binding, ctx)

    def compile(self, constraint: Term) -> Check:
        """The compiled ``constraint``
        (:func:`repro.rules.guards.compile_constraint`)."""
        memo = self._compiled
        check = memo.get(constraint)
        if check is None:
            check = memo[constraint] = compile_constraint(
                self._predicates, constraint)
        return check
