"""The scanner the rewrite engine shipped before it learned to skip.

Test-only reference for :mod:`repro.rules.control`: every scan walks
the whole term from the root, asks *every* rule of the block
``quick_applicable`` at every position, builds a fresh
``RuleContext`` per attempt and recomputes the schemas it needs on
each scan.  No rule index, no clean-subtree memo, no state kept
between scans -- so it is the plain statement of "positions in
pre-order, rules in block order, first application that changes the
term", and the shipped engine must fire the same rule at the same
position every time (``test_scan_differential.py``).

Compiled rules are screened by root functor only, as they used to be
(:func:`root_applicable`), so the comparison also covers the claim
that the symbol test of ``RewriteRule.quick_applicable`` only ever
turns away a rule the matcher would have failed -- and they are
*applied* by ``tests/rules/reference_rule.py``, the interpreting
matcher, constraint evaluation, method dispatch and instantiation, so
the comparison covers the generated matchers, guard chains and
builders too.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.errors import ReproError
from repro.lera import ops
from repro.lera.schema import Schema, schema_of
from repro.obs.events import RuleAttempt
from repro.rules.control import RewriteEngine
from repro.rules.rule import RewriteRule, RuleContext
from repro.terms.term import Fun, Term, is_fun, replace_at

from tests.rules.reference_rule import reference_apply

__all__ = ["ReferenceEngine", "positions", "root_applicable"]


def apply_rule(rule, subject: Term, ctx):
    """Compiled rules are interpreted; native and duck-typed rules
    apply themselves."""
    if isinstance(rule, RewriteRule):
        return reference_apply(rule, subject, ctx)
    return rule.apply(subject, ctx)


def root_applicable(rule, subject: Term) -> bool:
    """The root-symbol discriminator; native and duck-typed rules
    answer for themselves."""
    if not isinstance(rule, RewriteRule):
        return rule.quick_applicable(subject)
    return rule.root_name is None or is_fun(subject, rule.root_name)


class ReferenceEngine(RewriteEngine):
    """``RewriteEngine`` with the full-rescan application search."""

    def _find_application(self, block, result, budget, bus=None,
                          runtime=None):
        ctx = self._base  # the context rewrite() was given
        checks_this_scan = 0
        sandbox = runtime.policy.sandbox

        def missed(rule, path, attempt_t0):
            if bus:
                bus.emit(RuleAttempt(
                    block.name, rule.name, path, False,
                    perf_counter() - attempt_t0,
                ))

        for path, subterm, schemas, fix_env in positions(
                result.term, ctx):
            for rule in block.rules:
                if rule.name in self.quarantine:
                    continue
                if not root_applicable(rule, subterm):
                    continue
                checks_this_scan += 1
                result.checks += 1
                if block.count == "checks" and budget is not None and \
                        checks_this_scan > budget:
                    return None
                local_ctx = RuleContext(
                    catalog=ctx.catalog,
                    schemas=schemas,
                    constraint_evaluator=ctx.constraint_evaluator,
                    methods=ctx.methods,
                    fix_env=fix_env,
                    obs=bus,
                )
                attempt_t0 = perf_counter()
                if sandbox:
                    try:
                        application = apply_rule(rule, subterm, local_ctx)
                    except Exception as error:
                        runtime.record_failure(
                            block.name, rule.name, path, error, bus,
                        )
                        missed(rule, path, attempt_t0)
                        continue
                else:
                    application = apply_rule(rule, subterm, local_ctx)
                if application is None:
                    missed(rule, path, attempt_t0)
                    continue
                after, __ = application
                new_term = replace_at(result.term, path, after)
                if new_term == result.term:
                    # a no-op once re-normalised at the parent
                    missed(rule, path, attempt_t0)
                    continue
                apply_time = perf_counter() - attempt_t0 if bus else 0.0
                if bus:
                    bus.emit(RuleAttempt(
                        block.name, rule.name, path, True, apply_time,
                    ))
                return (path, subterm, after, rule.name,
                        checks_this_scan, new_term, apply_time)
        return None


def positions(term: Term, ctx: RuleContext):
    """Pre-order traversal yielding (path, subterm, schemas, fix_env).

    ``schemas`` carries the input schemas of the nearest enclosing
    operator when the position lies inside a qualification or a
    projection list, so ISA constraints can type attribute references.
    """
    def input_schemas(rels, fix_env) -> Optional[list[Schema]]:
        if ctx.catalog is None:
            return None
        out = []
        for r in rels:
            try:
                out.append(schema_of(r, ctx.catalog, fix_env))
            except ReproError:
                return None
        return out

    def rec(t: Term, path: tuple, schemas, fix_env):
        yield path, t, schemas, fix_env
        if not isinstance(t, Fun):
            return

        if t.name == "SEARCH":
            rels = ops.rel_list(t)
            inner = input_schemas(rels, fix_env)
            for i, r in enumerate(rels):
                yield from rec(r, path + (0, i), None, fix_env)
            yield from rec(t.args[1], path + (1,), inner, fix_env)
            yield from rec(t.args[2], path + (2,), inner, fix_env)
            return

        if t.name == "JOIN":
            rels = ops.rel_list(t)
            inner = input_schemas(rels, fix_env)
            for i, r in enumerate(rels):
                yield from rec(r, path + (0, i), None, fix_env)
            yield from rec(t.args[1], path + (1,), inner, fix_env)
            return

        if t.name in ("FILTER", "PROJECTION"):
            inner = input_schemas([t.args[0]], fix_env)
            yield from rec(t.args[0], path + (0,), None, fix_env)
            yield from rec(t.args[1], path + (1,), inner, fix_env)
            return

        if t.name in ("SEMIJOIN", "ANTIJOIN"):
            inner = input_schemas([t.args[0], t.args[1]], fix_env)
            yield from rec(t.args[0], path + (0,), None, fix_env)
            yield from rec(t.args[1], path + (1,), None, fix_env)
            yield from rec(t.args[2], path + (2,), inner, fix_env)
            return

        if t.name == "FIX":
            name = str(t.args[0].value)  # type: ignore[union-attr]
            inner_env = dict(fix_env)
            if ctx.catalog is not None:
                try:
                    inner_env[name] = schema_of(t, ctx.catalog, fix_env)
                except ReproError:
                    pass
            yield from rec(t.args[1], path + (1,), None, inner_env)
            return

        for i, a in enumerate(t.args):
            yield from rec(a, path + (i,), schemas, fix_env)

    yield from rec(term, (), None, dict(ctx.fix_env or {}))
