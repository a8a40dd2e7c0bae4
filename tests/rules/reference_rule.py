"""Rule application as it shipped before rules were compiled.

Test-only reference for :meth:`repro.rules.rule.RewriteRule.applications`
and for the compiled halves of :mod:`repro.rules.constraints` and
:mod:`repro.rules.methods`: every attempt re-interprets the rule --
the backtracking matcher of ``tests/terms/reference_match.py``, each
constraint dispatched by name and each method looked up by name/arity
at the moment it runs, every argument instantiated through ``mk_fun``,
the right term rebuilt the same way.  It reads the predicate and
method tables of the context's evaluator and registry, so extensions
registered on a database reach it as they reach the shipped rule.

:class:`~tests.rules.reference_engine.ReferenceEngine` applies compiled
rules through :func:`reference_apply`, so ``test_scan_differential.py``
compares the whole interpreting stack with the whole generated one.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterator, Optional

from repro.errors import MethodError, ReproError, RuleError
from repro.obs.events import ConstraintCheck, MethodCall
from repro.rules.guards import constraint_label, eval_ground
from repro.terms.term import Const, Fun, Seq, Term, is_ground

from tests.terms.reference_match import (instantiate,
                                         instantiate_spliceable, match)

__all__ = ["reference_applications", "reference_apply", "reference_holds",
           "reference_invoke"]


def reference_applications(rule, subject: Term,
                           ctx) -> Iterator[tuple[Term, dict]]:
    """Yield (result, binding) for every successful application."""
    if not rule.quick_applicable(subject):
        return
    evaluator = ctx.evaluator()
    registry = ctx.method_registry()
    for binding in match(rule.lhs, subject):
        if not all(
            reference_holds(evaluator, c, binding, ctx)
            for c in rule.constraints
        ):
            continue
        full = _run_methods(rule, binding, ctx, registry)
        if full is None:
            continue
        result = instantiate(rule.rhs, full)
        if result == subject:
            continue  # no-op: saturation reached for this binding
        yield result, full


def reference_apply(rule, subject: Term,
                    ctx) -> Optional[tuple[Term, dict]]:
    """First successful application, or None."""
    for result in reference_applications(rule, subject, ctx):
        return result
    return None


def _run_methods(rule, binding: dict, ctx, registry) -> Optional[dict]:
    full = dict(binding)
    for call in rule.methods:
        outputs = reference_invoke(registry, call, full, ctx)
        if outputs is None:
            return None
        for key, value in outputs.items():
            if key in full and full[key] != value:
                raise RuleError(
                    f"rule {rule.name!r}: method {call.name} rebinds "
                    f"{key!r}"
                )
            full[key] = value
    return full


# ---------------------------------------------------------------------------
# constraints, dispatched by name per evaluation
# ---------------------------------------------------------------------------

def reference_holds(evaluator, constraint: Term, binding: dict,
                    ctx) -> bool:
    """True when ``constraint`` holds under ``binding``."""
    try:
        outcome = _eval(evaluator, constraint, binding, ctx)
    except ReproError:
        outcome = False
    bus = getattr(ctx, "obs", None)
    if bus:
        bus.emit(ConstraintCheck(constraint_label(constraint), outcome))
    return outcome


def _eval(evaluator, constraint: Term, binding: dict, ctx) -> bool:
    if isinstance(constraint, Const):
        if constraint.kind == "bool":
            return bool(constraint.value)
        return False

    if isinstance(constraint, Fun):
        name = constraint.name
        if name == "NOT":
            return not _eval(evaluator, constraint.args[0], binding, ctx)
        if name == "AND":
            return all(_eval(evaluator, a, binding, ctx)
                       for a in constraint.args)
        if name == "OR":
            return any(_eval(evaluator, a, binding, ctx)
                       for a in constraint.args)

        if name in evaluator._predicates:
            args = [
                instantiate_spliceable(a, binding, strict=False)
                for a in constraint.args
            ]
            return evaluator._predicates[name](args, binding, ctx)

        # ground Boolean expression: evaluate through the registry
        inst = instantiate_spliceable(constraint, binding, strict=False)
        if isinstance(inst, Seq) or not is_ground(inst):
            return False
        return bool(eval_ground(inst, ctx))

    return False


# ---------------------------------------------------------------------------
# methods, looked up by name/arity per call
# ---------------------------------------------------------------------------

def reference_invoke(registry, call: Fun, binding: dict,
                     ctx) -> Optional[dict]:
    """Run one method call; returns new bindings or None on failure."""
    key = (call.name, len(call.args))
    impl = registry._methods.get(key)
    if impl is None:
        raise MethodError(
            f"unknown method {call.name}/{len(call.args)}"
        )
    inst = [
        instantiate_spliceable(a, binding, strict=False)
        for a in call.args
    ]
    bus = getattr(ctx, "obs", None)
    if bus:
        t0 = perf_counter()
        try:
            outputs = impl(inst, call.args, binding, ctx)
        except ReproError:
            outputs = None
        bus.emit(MethodCall(call.name, len(call.args),
                            outputs is not None,
                            perf_counter() - t0))
        return outputs
    try:
        return impl(inst, call.args, binding, ctx)
    except ReproError:
        return None
