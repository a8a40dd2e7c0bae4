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

from typing import Callable, Optional

from repro.adt.types import CollectionType, DataType
from repro.errors import ConstraintError, ReproError
from repro.terms.subst import instantiate_spliceable
from repro.terms.term import (Const, Fun, Seq, Term, is_ground)

__all__ = ["ConstraintEvaluator", "isa_predicate", "refer_predicate",
           "nonempty_predicate"]

# predicate(instantiated args, binding, ctx) -> bool
Predicate = Callable[[list, dict, object], bool]

_COLLECTION_KIND_NAMES = {"COLLECTION", "SET", "BAG", "LIST", "ARRAY"}


def _type_of_term(term: Term, ctx) -> Optional[DataType]:
    """Best-effort type of a matched term, using the context schemas."""
    from repro.adt.types import BOOLEAN, CHAR, INT, REAL
    if isinstance(term, Const):
        return {"int": INT, "real": REAL, "string": CHAR,
                "bool": BOOLEAN, "symbol": CHAR}[term.kind]
    if ctx is None or ctx.catalog is None or ctx.schemas is None:
        return None
    try:
        from repro.lera.schema import infer_type
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
    from repro.lera.analysis import attrefs_of
    from repro.lera.schema import schema_of

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
    from repro.lera.schema import schema_of
    from repro.terms.term import AttrRef, Fun

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
    return bool(_eval_ground(probe, ctx))


def nontrue_predicate(args: list, binding: dict, ctx) -> bool:
    """NONTRUE(f): the matched qualification is not the constant true
    (guards rules that would otherwise wrap operators forever)."""
    if len(args) != 1:
        raise ConstraintError("NONTRUE expects one argument")
    from repro.terms.term import TRUE
    return args[0] != TRUE


def nonempty_predicate(args: list, binding: dict, ctx) -> bool:
    """NONEMPTY(x*): the collection variable matched at least one term."""
    if len(args) != 1:
        raise ConstraintError("NONEMPTY expects one argument")
    value = args[0]
    if isinstance(value, Seq):
        return len(value.items) > 0
    return True  # a single term is a non-empty match


def _constraint_label(constraint: Term) -> str:
    """Short stable name of a constraint for telemetry (the head
    symbol, or the constant/kind when there is no application)."""
    if isinstance(constraint, Fun):
        return constraint.name
    if isinstance(constraint, Const):
        return f"const:{constraint.value}"
    return type(constraint).__name__


class ConstraintEvaluator:
    """Evaluates constraint terms; extensible with new predicates."""

    def __init__(self):
        self._predicates: dict[str, Predicate] = {
            "ISA": isa_predicate,
            "REFER": refer_predicate,
            "NONEMPTY": nonempty_predicate,
            "NONTRUE": nontrue_predicate,
            "NEST_TRAILING": nest_trailing_predicate,
            "MEMBER": member_predicate,
        }

    def register(self, name: str, predicate: Predicate) -> None:
        self._predicates[name.upper()] = predicate

    def knows(self, name: str) -> bool:
        return name.upper() in self._predicates

    def holds(self, constraint: Term, binding: dict, ctx) -> bool:
        """True when ``constraint`` holds under ``binding``."""
        try:
            outcome = self._eval(constraint, binding, ctx)
        except ReproError:
            outcome = False
        bus = getattr(ctx, "obs", None)
        if bus:
            from repro.obs.events import ConstraintCheck
            bus.emit(ConstraintCheck(_constraint_label(constraint),
                                     outcome))
        return outcome

    def _eval(self, constraint: Term, binding: dict, ctx) -> bool:
        if isinstance(constraint, Const):
            if constraint.kind == "bool":
                return bool(constraint.value)
            return False

        if isinstance(constraint, Fun):
            name = constraint.name
            if name == "NOT":
                return not self._eval(constraint.args[0], binding, ctx)
            if name == "AND":
                return all(self._eval(a, binding, ctx)
                           for a in constraint.args)
            if name == "OR":
                return any(self._eval(a, binding, ctx)
                           for a in constraint.args)

            if name in self._predicates:
                args = [
                    instantiate_spliceable(a, binding, strict=False)
                    for a in constraint.args
                ]
                return self._predicates[name](args, binding, ctx)

            # ground Boolean expression: evaluate through the registry
            inst = instantiate_spliceable(constraint, binding, strict=False)
            if isinstance(inst, Seq) or not is_ground(inst):
                return False
            return bool(_eval_ground(inst, ctx))

        return False


class _FallbackContext:
    """Evaluation context used when no catalog is available: the default
    function library over an empty object store."""

    def __init__(self):
        from repro.adt.functions import default_registry
        from repro.adt.types import TypeSystem
        from repro.adt.values import ObjectStore
        self.registry = default_registry()
        self.objects = ObjectStore()
        self.type_system = TypeSystem()


_FALLBACK = None


def _eval_ground(term: Term, ctx):
    """Evaluate a ground (constant-only) term via the function registry."""
    global _FALLBACK
    if isinstance(term, Const):
        return str(term.value) if term.kind == "symbol" else term.value
    if isinstance(term, Fun):
        if ctx is not None and ctx.catalog is not None:
            registry = ctx.catalog.registry
            objects = ctx.catalog.objects
            type_system = ctx.catalog.type_system
        else:
            if _FALLBACK is None:
                _FALLBACK = _FallbackContext()
            registry = _FALLBACK.registry
            objects = _FALLBACK.objects
            type_system = _FALLBACK.type_system
        args = [_eval_ground(a, ctx) for a in term.args]
        fdef = registry.lookup(term.name, len(args))
        if not fdef.pure:
            raise ConstraintError(
                f"function {term.name} is not pure; cannot evaluate in a "
                f"constraint"
            )

        class _Ctx:
            pass
        _Ctx.objects = objects
        _Ctx.type_system = type_system
        return registry.call(term.name, args, _Ctx())
    raise ConstraintError(f"cannot evaluate {term!r}")
