"""The per-row term interpreter the engine shipped before it compiled.

Test-only reference for :mod:`repro.engine.evaluate` (the precedent is
``tests/rules/reference_engine.py``): the evaluator exactly as it was
when every row re-walked the term tree -- ``_eval_expr`` per scalar
expression, ``getattr(self, f"_eval_{name}")`` per operator,
``_combinations`` re-deriving conjunct references, the greedy loop
order and the by-depth placement on every evaluation, a chain of
nested generators per output row.  It keeps its own copies of the
helpers (``_hash_index``, ``_equi_probe``, ``_replace_nth_symbol``,
``_estimate_bytes``) so a slip in a shipped helper cannot hide behind
a shared one.  The compiled evaluator must return the same rows in
the same order, the same seven counters, the same number of context
ticks and checks and the same errors, in all four engine
configurations (``test_compiled_differential.py``).  The only second
evaluator in the repository; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.adt.values import CollectionValue
from repro.engine.catalog import Catalog
from repro.engine.evaluate import Result
from repro.engine.stats import EvalStats
from repro.errors import EvaluationError
from repro.lera import ops
from repro.lifecycle.context import Truncation, current_context
from repro.lera.schema import Schema, schema_of
from repro.terms.term import (AttrRef, Const, Fun, Term, conjuncts, is_fun,
                              mentions, mk_fun, sym)

__all__ = ["ReferenceEvaluator"]

_MAX_DEFAULT_ITERATIONS = 100_000


def _dedupe(rows: Sequence[tuple]) -> list[tuple]:
    return list(dict.fromkeys(rows))


class ReferenceEvaluator:
    """Evaluates LERA terms.

    Parameters
    ----------
    catalog:
        The catalog holding relations, types, functions and objects.
    stats:
        Optional :class:`EvalStats` receiving work counters.
    semi_naive:
        Fixpoint strategy; False selects naive recomputation (ablation A3).
    max_fix_iterations:
        Safety bound on fixpoint rounds.
    obs:
        Optional :class:`~repro.obs.bus.EventBus`; when it has
        subscribers every evaluated operator emits an ``EvalOp`` event
        (operator name, rows produced, monotonic duration).
    context:
        Optional :class:`~repro.lifecycle.QueryContext` governing this
        evaluation; defaults to the ambient statement context, so
        evaluators built deep inside the translator (DML predicate
        subqueries) inherit the statement's cancel token and budgets
        without signature plumbing.
    """

    def __init__(self, catalog: Catalog,
                 stats: Optional[EvalStats] = None,
                 semi_naive: bool = True,
                 hash_joins: bool = False,
                 max_fix_iterations: int = _MAX_DEFAULT_ITERATIONS,
                 obs=None, context=None, analyze=None):
        self.catalog = catalog
        self.stats = stats if stats is not None else EvalStats()
        self.semi_naive = semi_naive
        self.hash_joins = hash_joins
        self.max_fix_iterations = max_fix_iterations
        self.obs = obs
        # EXPLAIN ANALYZE: an AnalyzeCollector accumulating per-operator
        # actuals, or None (the default) -- the off path costs one is-None
        # test per dispatched node, same discipline as the event bus
        self.analyze = analyze
        self.context = context if context is not None \
            else current_context()
        # bytes this evaluator has reserved against the context's
        # memory budget; released wholesale when evaluate() exits
        self._mem_reserved = 0

    # registry implementations receive the evaluator as their context
    @property
    def objects(self):
        return self.catalog.objects

    @property
    def type_system(self):
        return self.catalog.type_system

    # -- public API ---------------------------------------------------------
    def evaluate(self, term: Term,
                 schema: Optional[Schema] = None) -> Result:
        """Run ``term``; ``schema`` is its output schema when the
        caller already holds it (the statement path does, from the
        optimizer), derived here otherwise."""
        self._cache: dict[Term, list[tuple]] = {}
        # one snapshot per sys.* relation per evaluation: a plan that
        # scans the same virtual twice (self-join, fixpoint) must see
        # the same point-in-time rows both times
        self._vrows: dict[str, list[tuple]] = {}
        ctx = self.context
        if ctx is None:
            rows = self._eval_rel(term, {}, {})
            if schema is None:
                schema = schema_of(term, self.catalog)
            return Result(rows, schema)
        try:
            try:
                rows = self._eval_rel(term, {}, {})
            except Truncation:
                # the trip escaped every materializing handler (e.g. a
                # bare-relation plan): an empty prefix is the result
                self._note_truncated()
                rows = []
            if schema is None:
                schema = schema_of(term, self.catalog)
            return Result(rows, schema)
        finally:
            # zero-balance the statement's memory account: every byte
            # this evaluator reserved is released here, completion or
            # abort alike (the hypothesis property relies on this)
            if self._mem_reserved:
                ctx.release(self._mem_reserved)
                self._mem_reserved = 0

    # -- lifecycle accounting -------------------------------------------------
    def _note_truncated(self) -> None:
        if not self.stats.truncated:
            self.stats.incr("truncated")

    def _reserve(self, rows: list) -> None:
        """Reserve the estimated bytes of one materialized row list
        against the context's memory budget (may trip it)."""
        nbytes = _estimate_bytes(rows)
        # the accountant records the reservation *before* the budget
        # check raises, so the finally-release stays zero-balanced
        self._mem_reserved += nbytes
        self.context.reserve(nbytes)

    def _account_out(self, rows: list) -> list:
        """Charge one operator's output batch (rows + memory).

        A degrade-mode trip here keeps the batch: the context is now
        flagged truncated, so the very next tick anywhere unwinds the
        operator stack.  A hard trip propagates as BudgetExceeded.
        """
        ctx = self.context
        if ctx is None or not rows:
            return rows
        try:
            ctx.charge_rows(len(rows))
            self._reserve(rows)
        except Truncation:
            self._note_truncated()
        return rows

    def _charge_scan(self, rows: list, ctx) -> list:
        """Charge one relation scan; returns the (possibly truncated)
        batch to hand to the consuming operator."""
        before = ctx.rows_charged
        try:
            ctx.tick(len(rows))
            ctx.charge_rows(len(rows))
            self._reserve(rows)
            return rows
        except Truncation:
            self._note_truncated()
            if ctx.row_budget is not None:
                return rows[:max(0, ctx.row_budget - before)]
            return []

    # -- relation evaluation ------------------------------------------------
    def _eval_rel(self, term: Term, fix_rows: dict,
                  fix_env: dict) -> list[tuple]:
        # Common-subexpression cache: a compound subterm that does not
        # reference any in-scope fixpoint relation always evaluates to the
        # same rows within one query; the Alexander rewrite relies on this
        # (the inlined magic fixpoint is shared by every specialized
        # branch and must be computed once).
        cache = getattr(self, "_cache", None)
        cacheable = (
            cache is not None
            and isinstance(term, Fun)
            and term.name in ("FIX", "UNION", "SEARCH", "JOIN", "NEST")
            and (not fix_rows
                 or mentions(term).keys().isdisjoint(fix_rows))
        )
        if cacheable and term in cache:
            return cache[term]
        rows = self._eval_rel_inner(term, fix_rows, fix_env)
        if cacheable:
            cache[term] = rows
        return rows

    def _eval_rel_inner(self, term: Term, fix_rows: dict,
                        fix_env: dict) -> list[tuple]:
        bus = self.obs
        analyze = self.analyze
        if analyze is None and not bus:
            return self._eval_dispatch(term, fix_rows, fix_env)
        from time import perf_counter
        if analyze is not None:
            analyze.enter(term)
            rows = None
            t0 = perf_counter()
            try:
                rows = self._eval_dispatch(term, fix_rows, fix_env)
            finally:
                # exit even when a Truncation / budget trip unwinds
                # through this node, keeping the collector's nesting
                # stack aligned with the recursion
                analyze.exit(
                    term,
                    len(rows) if rows is not None else 0,
                    perf_counter() - t0,
                    _estimate_bytes(rows) if rows else 0,
                )
        else:
            t0 = perf_counter()
            rows = self._eval_dispatch(term, fix_rows, fix_env)
        if bus:
            from repro.obs.events import EvalOp
            operator = (term.name if isinstance(term, Fun)
                        else "SCAN" if ops.is_relation_name(term)
                        else type(term).__name__)
            bus.emit(EvalOp(operator, len(rows), perf_counter() - t0))
        return rows

    def _eval_dispatch(self, term: Term, fix_rows: dict,
                       fix_env: dict) -> list[tuple]:
        self.stats.incr("operators_evaluated")

        if ops.is_relation_name(term):
            name = str(term.value)  # type: ignore[union-attr]
            if name in fix_rows:
                rows = fix_rows[name]
            elif self.catalog.is_table(name):
                rows = self.catalog.rows(name)
            elif self.catalog.is_virtual(name):
                vrows = getattr(self, "_vrows", None)
                if vrows is None:
                    vrows = self._vrows = {}
                if name in vrows:
                    rows = vrows[name]
                else:
                    rows = vrows[name] = self.catalog.virtual_rows(name)
            elif self.catalog.is_view(name):
                # views are normally expanded at translation time; keep a
                # fallback so hand-built plans can reference them
                view = self.catalog.view(name)
                return self._eval_rel(view.term, fix_rows, fix_env)
            else:
                raise EvaluationError(f"unknown relation {name!r}")
            self.stats.incr("tuples_scanned", len(rows))
            ctx = self.context
            if ctx is None:
                return list(rows)
            return self._charge_scan(list(rows), ctx)

        if not isinstance(term, Fun):
            raise EvaluationError(f"not a LERA term: {term!r}")

        handler = getattr(self, f"_eval_{term.name.lower()}", None)
        if handler is None:
            raise EvaluationError(
                f"cannot evaluate operator {term.name!r}"
            )
        return handler(term, fix_rows, fix_env)

    def _eval_search(self, term: Fun, fix_rows: dict,
                     fix_env: dict) -> list[tuple]:
        inputs, qual, items = ops.search_parts(term)
        exprs = [ops.item_expr(i) for i in items]
        out: list[tuple] = []
        try:
            for env in self._combinations(inputs, qual, fix_rows,
                                          fix_env):
                out.append(tuple(self._eval_expr(e, env) for e in exprs))
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_join(self, term: Fun, fix_rows: dict,
                   fix_env: dict) -> list[tuple]:
        inputs = ops.rel_list(term)
        qual = term.args[1]
        out: list[tuple] = []
        try:
            for env in self._combinations(inputs, qual, fix_rows,
                                          fix_env):
                row: tuple = ()
                for part in env:
                    row += part
                out.append(row)
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _combinations(self, inputs, qual, fix_rows, fix_env):
        """Nested-loop product with eager conjunct application.

        The compound SEARCH gives the system "the necessary degrees of
        freedom to physically optimize" (section 3.1): the loop order is
        chosen greedily so that each next input makes as many conjuncts
        evaluable as possible -- the textual input order carries no
        physical meaning.
        """
        from repro.lera.analysis import rels_referenced
        n = len(inputs)
        conj_refs: list[tuple[Term, frozenset]] = []
        for c in conjuncts(qual):
            refs = frozenset(rels_referenced(c))
            if refs and max(refs) > n:
                raise EvaluationError(
                    f"qualification references input {max(refs)} but "
                    f"the operator has {n} inputs"
                )
            conj_refs.append((c, refs))

        # constant conjuncts: decide once, before touching any input
        for c, refs in conj_refs:
            if not refs:
                self.stats.incr("qual_evaluations")
                if not self._truthy(self._eval_expr(c, [])):
                    return

        order = self._greedy_order(n, [refs for __, refs in conj_refs])

        # conjuncts grouped by the loop depth at which they close
        depth_of: dict[int, int] = {
            pos: depth for depth, pos in enumerate(order)
        }
        by_depth: list[list[Term]] = [[] for __ in range(n)]
        for c, refs in conj_refs:
            if refs:
                by_depth[max(depth_of[r] for r in refs)].append(c)

        relations = [self._eval_rel(r, fix_rows, fix_env) for r in inputs]
        env: list = [None] * n

        # optional hash joins: for each loop depth > 0 pick one
        # equi-conjunct linking the incoming input to an already-bound
        # one and index the input on it (ablation A6)
        hash_probe: list = [None] * n
        indexes: list = [None] * n
        if self.hash_joins:
            for depth in range(1, n):
                pos = order[depth]
                bound = {order[d] for d in range(depth)}
                for c in by_depth[depth]:
                    probe = _equi_probe(c, pos, bound)
                    if probe is not None:
                        hash_probe[depth] = probe
                        break

        # the join-probe cooperative check site: one tick per candidate
        # row extended at any depth (captured locally -- the per-row
        # cost without a context is exactly one None test)
        ctx = self.context

        def extend(depth: int):
            if depth == n:
                yield list(env)
                return
            pos = order[depth]
            candidates = relations[pos - 1]
            probe = hash_probe[depth]
            if probe is not None and indexes[depth] is None:
                indexes[depth] = _hash_index(candidates, probe[0])
                if indexes[depth] is None:
                    probe = hash_probe[depth] = None  # declined: scan
            if probe is not None:
                other_ref = probe[1]
                key = env[other_ref.rel - 1][other_ref.pos - 1]
                if not isinstance(key, CollectionValue):
                    candidates = indexes[depth].get(key, ())
            for row in candidates:
                if depth == 0:
                    self.stats.incr("tuples_scanned")
                else:
                    self.stats.incr("join_pairs")
                if ctx is not None:
                    ctx.tick()
                env[pos - 1] = row
                ok = True
                for c in by_depth[depth]:
                    self.stats.incr("qual_evaluations")
                    if not self._truthy(self._eval_expr(c, env)):
                        ok = False
                        break
                if ok:
                    yield from extend(depth + 1)
            env[pos - 1] = None

        yield from extend(0)

    @staticmethod
    def _greedy_order(n: int, conj_refs: list) -> list[int]:
        """Loop order (1-based input positions): each step picks the
        input closing the most not-yet-applied conjuncts, ties broken
        by textual position."""
        remaining = list(range(1, n + 1))
        bound: set[int] = set()
        pending = [refs for refs in conj_refs if refs]
        order: list[int] = []
        while remaining:
            def score(pos: int) -> int:
                probe = bound | {pos}
                return sum(1 for refs in pending if refs <= probe)
            best = max(remaining, key=lambda pos: (score(pos), -pos))
            order.append(best)
            remaining.remove(best)
            bound.add(best)
            pending = [refs for refs in pending if not refs <= bound]
        return order

    def _eval_filter(self, term: Fun, fix_rows: dict,
                     fix_env: dict) -> list[tuple]:
        rows = self._eval_rel(term.args[0], fix_rows, fix_env)
        qual = term.args[1]
        ctx = self.context
        out = []
        try:
            for row in rows:
                if ctx is not None:
                    ctx.tick()
                self.stats.incr("qual_evaluations")
                if self._truthy(self._eval_expr(qual, [row])):
                    out.append(row)
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_projection(self, term: Fun, fix_rows: dict,
                         fix_env: dict) -> list[tuple]:
        rows = self._eval_rel(term.args[0], fix_rows, fix_env)
        exprs = [ops.item_expr(i) for i in ops.proj_items(term)]
        ctx = self.context
        out = []
        try:
            for row in rows:
                if ctx is not None:
                    ctx.tick()
                out.append(tuple(
                    self._eval_expr(e, [row]) for e in exprs
                ))
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_empty(self, term: Fun, fix_rows: dict,
                    fix_env: dict) -> list[tuple]:
        return []

    def _eval_distinct(self, term: Fun, fix_rows: dict,
                       fix_env: dict) -> list[tuple]:
        return _dedupe(self._eval_rel(term.args[0], fix_rows, fix_env))

    def _eval_semijoin(self, term: Fun, fix_rows: dict,
                       fix_env: dict) -> list[tuple]:
        return self._eval_existential(term, fix_rows, fix_env, keep=True)

    def _eval_antijoin(self, term: Fun, fix_rows: dict,
                       fix_env: dict) -> list[tuple]:
        return self._eval_existential(term, fix_rows, fix_env, keep=False)

    def _eval_existential(self, term: Fun, fix_rows: dict,
                          fix_env: dict, keep: bool) -> list[tuple]:
        left = self._eval_rel(term.args[0], fix_rows, fix_env)
        right = self._eval_rel(term.args[1], fix_rows, fix_env)
        qual = term.args[2]
        ctx = self.context
        out = []
        try:
            for row in left:
                self.stats.incr("tuples_scanned")
                if ctx is not None:
                    ctx.tick()
                found = False
                for partner in right:
                    self.stats.incr("join_pairs")
                    self.stats.incr("qual_evaluations")
                    if ctx is not None:
                        ctx.tick()
                    if self._truthy(
                            self._eval_expr(qual, [row, partner])):
                        found = True
                        break
                if found == keep:
                    out.append(row)
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_values(self, term: Fun, fix_rows: dict,
                     fix_env: dict) -> list[tuple]:
        rows_list = term.args[0]
        out = []
        for row_term in rows_list.args:  # type: ignore[union-attr]
            out.append(tuple(
                self._eval_expr(cell, []) for cell in row_term.args
            ))
        return out

    def _eval_union(self, term: Fun, fix_rows: dict,
                    fix_env: dict) -> list[tuple]:
        out: list[tuple] = []
        try:
            for r in ops.relation_inputs(term):
                out.extend(self._eval_rel(r, fix_rows, fix_env))
        except Truncation:
            self._note_truncated()
        return _dedupe(out)

    def _eval_intersection(self, term: Fun, fix_rows: dict,
                           fix_env: dict) -> list[tuple]:
        inputs = ops.relation_inputs(term)
        out = _dedupe(self._eval_rel(inputs[0], fix_rows, fix_env))
        for r in inputs[1:]:
            keep = set(self._eval_rel(r, fix_rows, fix_env))
            out = [row for row in out if row in keep]
        return out

    def _eval_difference(self, term: Fun, fix_rows: dict,
                         fix_env: dict) -> list[tuple]:
        left = _dedupe(self._eval_rel(term.args[0], fix_rows, fix_env))
        right = set(self._eval_rel(term.args[1], fix_rows, fix_env))
        return [row for row in left if row not in right]

    # -- fixpoint -------------------------------------------------------------
    def _eval_fix(self, term: Fun, fix_rows: dict,
                  fix_env: dict) -> list[tuple]:
        rel_const, body = term.args
        name = str(rel_const.value)  # type: ignore[union-attr]
        inner_env = fix_env
        if "NEST" in term.symbols:
            # NEST alone reads the schema environment (to name the
            # attributes it groups); no NEST below, no schema to derive
            inner_env = dict(fix_env)
            inner_env[name] = schema_of(term, self.catalog, fix_env)

        if self.semi_naive:
            return self._fix_semi_naive(name, body, fix_rows, inner_env)
        return self._fix_naive(name, body, fix_rows, inner_env)

    def _fix_naive(self, name: str, body: Term, fix_rows: dict,
                   fix_env: dict) -> list[tuple]:
        ctx = self.context
        total: dict[tuple, None] = {}
        try:
            for iteration in range(self.max_fix_iterations):
                self.stats.incr("fix_iterations")
                # the fixpoint-iteration check site: an iteration is
                # far coarser than a row, so check unconditionally
                if ctx is not None:
                    ctx.check()
                inner_rows = dict(fix_rows)
                inner_rows[name] = list(total)
                produced = self._eval_rel(body, inner_rows, fix_env)
                before = len(total)
                for row in produced:
                    total.setdefault(row, None)
                if len(total) == before:
                    return self._account_out(list(total))
        except Truncation:
            self._note_truncated()
            return self._account_out(list(total))
        raise EvaluationError(
            f"fixpoint {name} did not converge within "
            f"{self.max_fix_iterations} iterations"
        )

    def _fix_semi_naive(self, name: str, body: Term, fix_rows: dict,
                        fix_env: dict) -> list[tuple]:
        delta_name = f"{name}$DELTA"
        inner_env = fix_env
        if name in fix_env:
            inner_env = dict(fix_env)
            inner_env[delta_name] = fix_env[name]

        if is_fun(body, "UNION"):
            branches = list(ops.relation_inputs(body))
        else:
            branches = [body]

        base_branches = [b for b in branches if name not in mentions(b)]
        rec_branches = [b for b in branches if name in mentions(b)]

        ctx = self.context
        total: dict[tuple, None] = {}
        try:
            for b in base_branches:
                self.stats.incr("fix_iterations")
                if ctx is not None:
                    ctx.check()
                for row in self._eval_rel(b, fix_rows, inner_env):
                    total.setdefault(row, None)
            delta = list(total)

            # delta rules: one variant per occurrence of the recursive
            # relation (covers the non-linear case: at least one
            # occurrence reads the delta, the others the running
            # total).
            variants: list[Term] = []
            for b in rec_branches:
                for i in range(mentions(b)[name]):
                    variants.append(
                        _replace_nth_symbol(b, name, i, delta_name)
                    )

            guard = 0
            while delta:
                guard += 1
                if guard > self.max_fix_iterations:
                    raise EvaluationError(
                        f"fixpoint {name} did not converge within "
                        f"{self.max_fix_iterations} iterations"
                    )
                self.stats.incr("fix_iterations")
                # the fixpoint-iteration check site (semi-naive)
                if ctx is not None:
                    ctx.check()
                inner_rows = dict(fix_rows)
                inner_rows[name] = list(total)
                inner_rows[delta_name] = delta
                produced: list[tuple] = []
                for v in variants:
                    produced.extend(
                        self._eval_rel(v, inner_rows, inner_env)
                    )
                delta = []
                for row in _dedupe(produced):
                    if row not in total:
                        total[row] = None
                        delta.append(row)
        except Truncation:
            self._note_truncated()
        return self._account_out(list(total))

    # -- nest / unnest ----------------------------------------------------------
    def _eval_nest(self, term: Fun, fix_rows: dict,
                   fix_env: dict) -> list[tuple]:
        from repro.adt.values import (ArrayValue, BagValue, ListValue,
                                      SetValue, TupleValue)
        ctors = {"SET": SetValue, "BAG": BagValue,
                 "LIST": ListValue, "ARRAY": ArrayValue}

        input_term, nested_list, spec = term.args
        rows = self._eval_rel(input_term, fix_rows, fix_env)
        input_schema = schema_of(input_term, self.catalog, fix_env)

        positions = [a.pos for a in nested_list.args]  # type: ignore
        kind = str(spec.args[1].value)  # type: ignore[union-attr]
        kept = [p for p in range(1, len(input_schema) + 1)
                if p not in positions]
        nested_names = [input_schema.attr_name(p) for p in positions]

        groups: dict[tuple, list] = {}
        for row in rows:
            key = tuple(row[p - 1] for p in kept)
            if len(positions) == 1:
                item = row[positions[0] - 1]
            else:
                item = TupleValue(zip(
                    nested_names, (row[p - 1] for p in positions)
                ))
            groups.setdefault(key, []).append(item)

        ctor = ctors[kind]
        out = [key + (ctor(items),) for key, items in groups.items()]
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    def _eval_unnest(self, term: Fun, fix_rows: dict,
                     fix_env: dict) -> list[tuple]:
        input_term, attr = term.args
        rows = self._eval_rel(input_term, fix_rows, fix_env)
        pos = attr.pos  # type: ignore[union-attr]
        ctx = self.context
        out = []
        try:
            for row in rows:
                if ctx is not None:
                    ctx.tick()
                coll = row[pos - 1]
                if not isinstance(coll, CollectionValue):
                    raise EvaluationError(
                        f"UNNEST attribute {pos} is not a collection: "
                        f"{coll!r}"
                    )
                for element in coll:
                    out.append(row[:pos - 1] + (element,) + row[pos:])
        except Truncation:
            self._note_truncated()
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    # -- scalar expressions ----------------------------------------------------
    def _eval_expr(self, expr: Term, env: Sequence[tuple]) -> Any:
        if isinstance(expr, Const):
            if expr.kind == "symbol":
                return str(expr.value)
            return expr.value

        if isinstance(expr, AttrRef):
            if expr.rel - 1 >= len(env):
                raise EvaluationError(
                    f"attribute reference #{expr.rel}.{expr.pos} exceeds "
                    f"the {len(env)} bound relation(s)"
                )
            row = env[expr.rel - 1]
            if expr.pos - 1 >= len(row):
                raise EvaluationError(
                    f"attribute reference #{expr.rel}.{expr.pos} exceeds "
                    f"the row width {len(row)}"
                )
            return row[expr.pos - 1]

        if isinstance(expr, Fun):
            name = expr.name
            if name == "AND":
                return all(
                    self._truthy(self._eval_expr(a, env))
                    for a in expr.args
                )
            if name == "OR":
                return any(
                    self._truthy(self._eval_expr(a, env))
                    for a in expr.args
                )
            if name == "NOT":
                return not self._truthy(self._eval_expr(expr.args[0], env))
            if name == "AS":
                return self._eval_expr(expr.args[0], env)
            args = [self._eval_expr(a, env) for a in expr.args]
            return self.catalog.registry.call(name, args, self)

        raise EvaluationError(f"cannot evaluate expression {expr!r}")

    @staticmethod
    def _truthy(value: Any) -> bool:
        return bool(value)


def _estimate_bytes(rows: list) -> int:
    """A cheap, deterministic size estimate for one materialized row
    list: tuple header + one slot per attribute, per row.  Deliberately
    O(1) (first-row width) -- the budget bounds blow-ups by orders of
    magnitude, not bytes."""
    if not rows:
        return 0
    width = len(rows[0]) if isinstance(rows[0], tuple) else 1
    return len(rows) * (48 + 8 * width)


def _hash_index(rows: list, col: int) -> Optional[dict]:
    """``rows`` by their value in column ``col``; None when one of
    those values is a collection: ``=`` broadcasts over a collection
    operand, which a dict lookup cannot reproduce, so the probe
    declines (for a collection key on the probing side as well) and
    the loop scans."""
    index: dict = {}
    for row in rows:
        key = row[col - 1]
        if isinstance(key, CollectionValue):
            return None
        index.setdefault(key, []).append(row)
    return index


def _equi_probe(conjunct: Term, pos: int, bound: set):
    """(own column, other AttrRef) when ``conjunct`` is an equality
    linking input ``pos`` to a bound input; None otherwise."""
    if not (is_fun(conjunct, "=") and len(conjunct.args) == 2):
        return None
    left, right = conjunct.args  # type: ignore[union-attr]
    if not (isinstance(left, AttrRef) and isinstance(right, AttrRef)):
        return None
    for own, other in ((left, right), (right, left)):
        if own.rel == pos and other.rel in bound:
            return own.pos, other
    return None


def _replace_nth_symbol(term: Term, name: str, n: int,
                        replacement: str) -> Term:
    """Replace the n-th (0-based) occurrence of symbol ``name``."""
    counter = [0]

    def rec(t: Term) -> Term:
        if isinstance(t, Const) and t.kind == "symbol" \
                and str(t.value) == name:
            index = counter[0]
            counter[0] += 1
            if index == n:
                return sym(replacement)
            return t
        if isinstance(t, Fun):
            return mk_fun(t.name, [rec(a) for a in t.args])
        return t

    return rec(term)
