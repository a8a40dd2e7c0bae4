"""The guard chain of a rule: its constraints and method calls, compiled.

Between a successful match and the right-hand side stand the rule's
constraints (all must hold) and its method calls (each may veto, each
adds bindings).  Both are terms naming a callable -- a predicate of a
:class:`~repro.rules.constraints.ConstraintEvaluator`, a method of a
:class:`~repro.rules.methods.MethodRegistry` -- and both are compiled
here, once, into a closure over that callable and one
:func:`~repro.terms.compile.compile_template` builder per argument (a
bare variable costs a dict lookup, a ground argument nothing).  The
evaluator and the registry keep the closures and drop them whenever
something is registered, so resolution happens once per registry
version and a late ``add_method`` / ``add_predicate`` /
``Database.install`` still takes effect.

What a predicate or a method may rely on is unchanged: a predicate is
``predicate(args, binding, ctx) -> bool`` and a method
``impl(inst, raw, binding, ctx) -> {key: term} | None``, both given
every argument instantiated under the binding (unbound variables left
in place) and the binding itself under the keys ``x`` / ``*x`` /
``§F``.
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter
from typing import Callable, Mapping, Optional

from repro.errors import ConstraintError, MethodError, ReproError
from repro.obs.events import ConstraintCheck, MethodCall
from repro.terms.compile import compile_template
from repro.terms.term import Const, Fun, Seq, Term, is_ground

__all__ = ["Predicate", "Check", "MethodImpl", "Invoke",
           "compile_constraint", "compile_call", "constraint_label",
           "eval_ground"]

# predicate(instantiated args, binding, ctx) -> bool
Predicate = Callable[[list, dict, object], bool]
# check(binding, ctx) -> bool: one compiled constraint
Check = Callable[[dict, object], bool]
# impl(instantiated args, raw args, binding, ctx) -> {var name: Term} | None
MethodImpl = Callable[[list, tuple, dict, object], Optional[dict]]
# invoke(binding, ctx) -> {var name: Term} | None: one compiled call
Invoke = Callable[[dict, object], Optional[dict]]


def constraint_label(constraint: Term) -> str:
    """Short stable name of a constraint for telemetry (the head
    symbol, or the constant/kind when there is no application)."""
    if isinstance(constraint, Fun):
        return constraint.name
    if isinstance(constraint, Const):
        return f"const:{constraint.value}"
    return type(constraint).__name__


def compile_constraint(predicates: Mapping[str, Predicate],
                       constraint: Term) -> Check:
    """``check(binding, ctx)``: the verdict on ``constraint``, an
    undecidable one (a :class:`ReproError`) being false; emits one
    ``ConstraintCheck`` on the context's bus."""
    decide = _decider(predicates, constraint)
    label = constraint_label(constraint)

    def check(binding: dict, ctx) -> bool:
        try:
            outcome = decide(binding, ctx)
        except ReproError:
            outcome = False
        bus = getattr(ctx, "obs", None)
        if bus:
            bus.emit(ConstraintCheck(label, outcome))
        return outcome
    return check


def _decider(predicates: Mapping[str, Predicate],
             constraint: Term) -> Check:
    if not isinstance(constraint, Fun):
        outcome = (isinstance(constraint, Const)
                   and constraint.kind == "bool" and bool(constraint.value))
        return lambda binding, ctx: outcome
    name = constraint.name
    if name in ("NOT", "AND", "OR"):
        parts = [_decider(predicates, a) for a in constraint.args]
        if name == "NOT":
            negated = parts[0]
            return lambda binding, ctx: not negated(binding, ctx)
        quantifier = all if name == "AND" else any
        return lambda binding, ctx: quantifier(
            part(binding, ctx) for part in parts)
    predicate = predicates.get(name)
    if predicate is not None:
        builders = [compile_template(a, strict=False)
                    for a in constraint.args]
        return lambda binding, ctx: predicate(
            [build(binding) for build in builders], binding, ctx)

    # a ground Boolean expression: evaluated through the registry
    build = compile_template(constraint, strict=False)

    def ground(binding: dict, ctx) -> bool:
        inst = build(binding)
        if isinstance(inst, Seq) or not is_ground(inst):
            return False
        return bool(eval_ground(inst, ctx))
    return ground


def compile_call(methods: Mapping[tuple, MethodImpl], call: Fun) -> Invoke:
    """``invoke(binding, ctx)``: the new bindings of one run of the
    method ``call`` names, or None when it fails (a
    :class:`ReproError` included); emits one ``MethodCall`` on the
    context's bus.  An unknown method raises when invoked, not here."""
    name, raw = call.name, call.args
    arity = len(raw)
    impl = methods.get((name, arity))
    if impl is None:
        def unknown(binding: dict, ctx) -> Optional[dict]:
            raise MethodError(f"unknown method {name}/{arity}")
        return unknown
    builders = [compile_template(a, strict=False) for a in raw]

    def invoke(binding: dict, ctx) -> Optional[dict]:
        inst = [build(binding) for build in builders]
        bus = getattr(ctx, "obs", None)
        t0 = perf_counter() if bus else 0.0
        try:
            outputs = impl(inst, raw, binding, ctx)
        except ReproError:
            outputs = None
        if bus:
            bus.emit(MethodCall(name, arity, outputs is not None,
                                perf_counter() - t0))
        return outputs
    return invoke


@lru_cache(maxsize=1)
def _bare_catalog():
    """What a ground term evaluates against when the context has no
    catalog: the default function library over an empty object store."""
    from repro.engine.catalog import Catalog
    return Catalog()


def eval_ground(term: Term, ctx):
    """Evaluate a ground (constant-only) term via the function registry;
    the functions see the catalog (its objects and type system) as
    their context."""
    if isinstance(term, Const):
        return str(term.value) if term.kind == "symbol" else term.value
    if isinstance(term, Fun):
        env = ctx.catalog if ctx is not None and ctx.catalog is not None \
            else _bare_catalog()
        args = [eval_ground(a, ctx) for a in term.args]
        fdef = env.registry.lookup(term.name, len(args))
        if not fdef.pure:
            raise ConstraintError(
                f"function {term.name} is not pure; cannot evaluate in a "
                f"constraint"
            )
        return env.registry.call(term.name, args, env)
    raise ConstraintError(f"cannot evaluate {term!r}")
