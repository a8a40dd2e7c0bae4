"""The LERA evaluator: compiles algebra terms to closures and runs them.

This is the execution substrate that makes rewriting *measurable*.
:meth:`Evaluator.evaluate` walks the plan once, turning every operator
into a closure ``run(fix_rows, fix_env) -> rows`` and every scalar
expression into a closure ``f(env)``; what does not depend on the data
is decided during that walk, never per row.  The physical strategy is
deliberately simple and deterministic:

* SEARCH / JOIN run as nested loops over their inputs, applying each
  conjunct of the qualification as soon as all the relations it
  references are bound (so a merged qualification filters early -- the
  benefit merging rules expose).  Constant conjuncts, the greedy loop
  order, the depth at which each conjunct closes and one equi-conjunct
  per depth to probe a hash index with are fixed at compile time; the
  probe is the default, ``hash_joins=False`` scans instead (ablation
  A6), and a probe declines -- the loop scans -- where a key is a
  collection, because ``=`` broadcasts over it;
* UNION / INTERSECTION / DIFFERENCE use set semantics, SEARCH /
  PROJECTION keep bags (ESQL's default collection is a bag);
* FIX is computed by *semi-naive* iteration by default (delta rules per
  occurrence of the recursive relation, which also covers the non-linear
  case; base branches and delta variants are compiled once, not per
  iteration), with naive recomputation available as the A3 ablation
  baseline.

Compiled nodes are memoised on the evaluator for the length of one
``evaluate`` call: nothing compiled outlives a statement, so DDL and
``Database.install`` have nothing to invalidate.

Work counters (see :mod:`repro.engine.stats`) are kept in locals
inside the loops and flushed once per operator run, in a ``finally``.

Lifecycle governance: when a :class:`~repro.lifecycle.QueryContext` is
active (passed explicitly or ambient via
:func:`~repro.lifecycle.current_context`), the evaluator checks it
cooperatively -- ``tick()`` per scanned tuple and join probe,
``check()`` per fixpoint iteration -- and charges its row and memory
budgets per materialized batch.  A pulled cancel token or a hard
budget trip surfaces as :class:`~repro.errors.QueryCancelled` /
:class:`~repro.errors.BudgetExceeded` at the next check site; under
the context's *degrade* mode a budget trip instead raises the internal
:class:`~repro.lifecycle.Truncation`, which every materializing
operator catches, keeping its partial rows -- the statement completes
with a truncated result flagged in ``EvalStats.truncated``.  Whether a
context, an analyze collector or a subscribed bus is present is read
once, when a node is compiled.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Optional, Sequence

from repro.adt.values import (ArrayValue, BagValue, CollectionValue,
                              ListValue, SetValue, TupleValue)
from repro.engine.catalog import Catalog
from repro.engine.stats import EvalStats
from repro.errors import EvaluationError, FunctionError
from repro.lera import ops
from repro.lera.analysis import rels_referenced
from repro.lifecycle.context import Truncation, current_context
from repro.lera.schema import Schema, schema_of
from repro.obs.events import EvalOp
from repro.terms.term import (AttrRef, Const, Fun, Term, conjuncts, is_fun,
                              mentions, mk_fun, sym)

__all__ = ["Evaluator", "Result", "evaluate"]

_MAX_DEFAULT_ITERATIONS = 100_000

# operators whose result is shared within one evaluation (see _compile_node)
_SHARED = frozenset(("FIX", "UNION", "SEARCH", "JOIN", "NEST"))
_COLLECTION_CTORS = {"SET": SetValue, "BAG": BagValue,
                     "LIST": ListValue, "ARRAY": ArrayValue}


class Result:
    """Evaluation result: rows plus the output schema."""

    __slots__ = ("rows", "schema")

    def __init__(self, rows: list[tuple], schema: Schema):
        self.rows = rows
        self.schema = schema

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def as_dicts(self) -> list[dict]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    def to_table(self, max_rows: int = 50) -> str:
        """Render the result as an aligned text table."""
        from repro.adt.values import value_repr
        names = list(self.schema.names)
        shown = self.rows[:max_rows]
        cells = [[value_repr(v) if isinstance(v, (str, bool)) or v is None
                  else repr(v) for v in row] for row in shown]
        widths = [
            max([len(n)] + [len(row[i]) for row in cells])
            for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in cells:
            lines.append(" | ".join(
                c.ljust(w) for c, w in zip(row, widths)
            ))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more)")
        lines.append(f"({len(self.rows)} row"
                     f"{'' if len(self.rows) == 1 else 's'})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Result({len(self.rows)} rows, schema={self.schema!r})"


def _dedupe(rows: Sequence[tuple]) -> list[tuple]:
    return list(dict.fromkeys(rows))


class Evaluator:
    """Evaluates LERA terms.

    Parameters
    ----------
    catalog:
        The catalog holding relations, types, functions and objects.
    stats:
        Optional :class:`EvalStats` receiving work counters.
    semi_naive:
        Fixpoint strategy; False selects naive recomputation (ablation A3).
    hash_joins:
        False makes every SEARCH / JOIN level scan its input instead of
        probing a hash index on an equi-conjunct (ablation A6).
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
                 hash_joins: bool = True,
                 max_fix_iterations: int = _MAX_DEFAULT_ITERATIONS,
                 obs=None, context=None, analyze=None):
        self.catalog = catalog
        self.stats = stats if stats is not None else EvalStats()
        self.semi_naive = semi_naive
        self.hash_joins = hash_joins
        self.max_fix_iterations = max_fix_iterations
        self.obs = obs
        # EXPLAIN ANALYZE: an AnalyzeCollector accumulating per-operator
        # actuals, or None (the default); like the event bus it is read
        # when a node is compiled, so the off path costs nothing per run
        self.analyze = analyze
        self.context = context if context is not None \
            else current_context()
        # bytes this evaluator has reserved against the context's
        # memory budget; released wholesale when evaluate() exits
        self._mem_reserved = 0
        # per evaluation: the compiled nodes, the shared results and
        # one snapshot per sys.* relation
        self._compiled: dict[Term, Callable] = {}
        self._cache: dict[Term, list[tuple]] = {}
        self._vrows: dict[str, list[tuple]] = {}

    # registry implementations receive the evaluator as their context
    @property
    def objects(self):
        return self.catalog.objects

    @property
    def type_system(self):
        return self.catalog.type_system

    @property
    def _tick(self) -> Optional[Callable]:
        """The per-row check site a compiled loop carries: the
        context's ``tick``, or None without one."""
        return self.context.tick if self.context is not None else None

    # -- public API ---------------------------------------------------------
    def evaluate(self, term: Term,
                 schema: Optional[Schema] = None) -> Result:
        """Run ``term``; ``schema`` is its output schema when the
        caller already holds it (the statement path does, from the
        optimizer), derived here otherwise."""
        # one snapshot per sys.* relation per evaluation: a plan that
        # scans the same virtual twice (self-join, fixpoint) must see
        # the same point-in-time rows both times
        self._compiled, self._cache, self._vrows = {}, {}, {}
        try:
            try:
                rows = self._compile(term)({}, {})
            except Truncation:
                # the trip escaped every materializing handler (e.g. a
                # bare-relation plan): an empty prefix is the result
                self._note_truncated()
                rows = []
            if schema is None:
                schema = schema_of(term, self.catalog)
            return Result(rows, schema)
        finally:
            # the closures hold the evaluator: let go of them, so both
            # are freed on return rather than by a later gc pass
            self._compiled = {}
            # zero-balance the statement's memory account: every byte
            # this evaluator reserved is released here, completion or
            # abort alike (the hypothesis property relies on this)
            if self._mem_reserved:
                self.context.release(self._mem_reserved)
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

    def _output(self, out: list) -> list:
        self.stats.incr("tuples_output", len(out))
        return self._account_out(out)

    # -- compilation: relations -----------------------------------------------
    def _compile(self, term: Term) -> Callable:
        """The closure ``run(fix_rows, fix_env) -> rows`` of one plan
        node.  Equal subterms share one closure (the delta variants of
        a fixpoint differ from their branch along one path only)."""
        run = self._compiled.get(term)
        if run is None:
            run = self._compiled[term] = self._compile_node(term)
        return run

    def _compile_node(self, term: Term) -> Callable:
        try:
            if ops.is_relation_name(term):
                body = self._compile_scan(term)
            elif not isinstance(term, Fun):
                raise EvaluationError(f"not a LERA term: {term!r}")
            else:
                # an explicit table: a plan's operator name must never
                # select one of the evaluator's own attributes
                compiler = _OPERATORS.get(term.name)
                if compiler is None:
                    raise EvaluationError(
                        f"cannot evaluate operator {term.name!r}"
                    )
                body = compiler(self, term)
        except Exception as exc:
            # a node that cannot be compiled fails when it is run, not
            # before: under a constant-false qualification, or after an
            # input that raises first, it is never reached
            def body(fix_rows, fix_env, exc=exc):
                raise exc

        incr = self.stats.incr
        analyze, bus = self.analyze, self.obs
        if analyze is None and not bus:
            def node(fix_rows: dict, fix_env: dict) -> list[tuple]:
                incr("operators_evaluated")
                return body(fix_rows, fix_env)
        else:
            operator = (term.name if isinstance(term, Fun)
                        else "SCAN" if ops.is_relation_name(term)
                        else type(term).__name__)

            def node(fix_rows: dict, fix_env: dict) -> list[tuple]:
                rows = None
                if analyze is not None:
                    analyze.enter(term)
                t0 = perf_counter()
                try:
                    incr("operators_evaluated")
                    rows = body(fix_rows, fix_env)
                finally:
                    # exit even when a Truncation / budget trip unwinds
                    # through this node, keeping the collector's nesting
                    # stack aligned with the recursion
                    if analyze is not None:
                        analyze.exit(
                            term,
                            len(rows) if rows is not None else 0,
                            perf_counter() - t0,
                            _estimate_bytes(rows) if rows else 0,
                        )
                if bus:
                    bus.emit(EvalOp(operator, len(rows),
                                    perf_counter() - t0))
                return rows

        if not (isinstance(term, Fun) and term.name in _SHARED):
            return node
        # Common-subexpression cache: a compound subterm that does not
        # reference any in-scope fixpoint relation always evaluates to the
        # same rows within one query; the Alexander rewrite relies on this
        # (the inlined magic fixpoint is shared by every specialized
        # branch and must be computed once).
        cache = self._cache

        def shared(fix_rows: dict, fix_env: dict) -> list[tuple]:
            if fix_rows and not mentions(term).keys().isdisjoint(fix_rows):
                return node(fix_rows, fix_env)
            rows = cache.get(term)
            if rows is None:
                rows = cache[term] = node(fix_rows, fix_env)
            return rows
        return shared

    def _compile_scan(self, term: Term) -> Callable:
        name = str(term.value)  # type: ignore[union-attr]
        catalog, incr, ctx = self.catalog, self.stats.incr, self.context

        def scan(fix_rows: dict, fix_env: dict) -> list[tuple]:
            if name in fix_rows:
                rows = fix_rows[name]
            elif catalog.is_table(name):
                rows = catalog.rows(name)
            elif catalog.is_virtual(name):
                vrows = self._vrows
                if name not in vrows:
                    vrows[name] = catalog.virtual_rows(name)
                rows = vrows[name]
            elif catalog.is_view(name):
                # views are normally expanded at translation time; keep a
                # fallback so hand-built plans can reference them
                view = self._compile(catalog.view(name).term)
                return view(fix_rows, fix_env)
            else:
                raise EvaluationError(f"unknown relation {name!r}")
            incr("tuples_scanned", len(rows))
            if ctx is None:
                return list(rows)
            return self._charge_scan(list(rows), ctx)
        return scan

    def _compile_search(self, term: Fun) -> Callable:
        inputs, qual, items = ops.search_parts(term)
        build = self._row_builder([ops.item_expr(i) for i in items])
        return self._compile_product(inputs, qual, build)

    def _compile_join(self, term: Fun) -> Callable:
        return self._compile_product(ops.rel_list(term), term.args[1],
                                     _concatenated)

    def _compile_product(self, inputs, qual: Term,
                         emit: Callable) -> Callable:
        """Nested-loop product with eager conjunct application.

        The compound SEARCH gives the system "the necessary degrees of
        freedom to physically optimize" (section 3.1): the loop order is
        chosen greedily so that each next input makes as many conjuncts
        evaluable as possible -- the textual input order carries no
        physical meaning.  All of it is decided here, once; a run only
        loops.
        """
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
        constants = [self.compile_expr(c) for c, refs in conj_refs
                     if not refs]
        order = _greedy_order(n, [refs for __, refs in conj_refs])

        # conjuncts grouped by the loop depth at which they close
        depth_of = {pos: depth for depth, pos in enumerate(order)}
        by_depth: list[list[Term]] = [[] for __ in range(n)]
        for c, refs in conj_refs:
            if refs:
                by_depth[max(depth_of[r] for r in refs)].append(c)

        # hash probe: for each loop depth > 0 the first equi-conjunct
        # linking the incoming input to an already-bound one; the input
        # is indexed on it the first time a run reaches that depth
        static_probes: list = [None] * n
        if self.hash_joins:
            for depth in range(1, n):
                bound = set(order[:depth])
                static_probes[depth] = next(filter(None, (
                    _equi_probe(c, order[depth], bound)
                    for c in by_depth[depth])), None)

        preds = [[self.compile_expr(c) for c in level]
                 for level in by_depth]
        children = [self._compile(r) for r in inputs]
        slots = [pos - 1 for pos in order]
        innermost = n - 1
        incr = self.stats.incr
        # the join-probe cooperative check site: one tick per candidate
        # row extended at any depth
        tick = self._tick

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            out: list[tuple] = []
            # tuples_scanned, join_pairs, qual_evaluations of this run
            work = [0, 0, 0]

            def extend(depth: int) -> None:
                slot = slots[depth]
                candidates = relations[slot]
                probe = probes[depth]
                if probe is not None and indexes[depth] is None:
                    indexes[depth] = _hash_index(candidates, probe[0])
                    if indexes[depth] is None:
                        probe = probes[depth] = None  # declined: scan
                if probe is not None:
                    key = env[probe[1]][probe[2]]
                    if not isinstance(key, CollectionValue):
                        candidates = indexes[depth].get(key, ())
                level = preds[depth]
                seen = evaluated = 0
                try:
                    for row in candidates:
                        seen += 1
                        if tick is not None:
                            tick()
                        env[slot] = row
                        for pred in level:
                            evaluated += 1
                            if not pred(env):
                                break
                        else:
                            if depth == innermost:
                                out.append(emit(env))
                            else:
                                extend(depth + 1)
                finally:
                    work[1 if depth else 0] += seen
                    work[2] += evaluated

            try:
                # constant conjuncts: decide before touching any input
                for pred in constants:
                    work[2] += 1
                    if not pred(()):
                        break
                else:
                    relations = [child(fix_rows, fix_env)
                                 for child in children]
                    env: list = [None] * n
                    probes = list(static_probes)
                    indexes: list = [None] * n
                    if n:
                        extend(0)
                    else:
                        out.append(emit(env))
            except Truncation:
                self._note_truncated()
            finally:
                extend = None  # the function refers to itself: free it now
                incr("tuples_scanned", work[0])
                incr("join_pairs", work[1])
                incr("qual_evaluations", work[2])
            return self._output(out)
        return run

    def _compile_filter(self, term: Fun) -> Callable:
        child = self._compile(term.args[0])
        pred = self.compile_expr(term.args[1])
        incr = self.stats.incr
        tick = self._tick

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            rows = child(fix_rows, fix_env)
            out = []
            evaluated = 0
            try:
                for row in rows:
                    if tick is not None:
                        tick()
                    evaluated += 1
                    if pred((row,)):
                        out.append(row)
            except Truncation:
                self._note_truncated()
            finally:
                incr("qual_evaluations", evaluated)
            return self._output(out)
        return run

    def _compile_projection(self, term: Fun) -> Callable:
        child = self._compile(term.args[0])
        build = self._row_builder(
            [ops.item_expr(i) for i in ops.proj_items(term)])
        tick = self._tick

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            rows = child(fix_rows, fix_env)
            out = []
            try:
                for row in rows:
                    if tick is not None:
                        tick()
                    out.append(build((row,)))
            except Truncation:
                self._note_truncated()
            return self._output(out)
        return run

    def _compile_empty(self, term: Fun) -> Callable:
        return lambda fix_rows, fix_env: []

    def _compile_distinct(self, term: Fun) -> Callable:
        child = self._compile(term.args[0])
        return lambda fix_rows, fix_env: _dedupe(child(fix_rows, fix_env))

    def _compile_existential(self, term: Fun, keep: bool) -> Callable:
        left_run = self._compile(term.args[0])
        right_run = self._compile(term.args[1])
        pred = self.compile_expr(term.args[2])
        incr = self.stats.incr
        tick = self._tick

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            left = left_run(fix_rows, fix_env)
            right = right_run(fix_rows, fix_env)
            out = []
            scanned = pairs = 0
            try:
                for row in left:
                    scanned += 1
                    if tick is not None:
                        tick()
                    found = False
                    for partner in right:
                        pairs += 1
                        if tick is not None:
                            tick()
                        if pred((row, partner)):
                            found = True
                            break
                    if found == keep:
                        out.append(row)
            except Truncation:
                self._note_truncated()
            finally:
                incr("tuples_scanned", scanned)
                incr("join_pairs", pairs)
                incr("qual_evaluations", pairs)
            return self._output(out)
        return run

    def _compile_values(self, term: Fun) -> Callable:
        rows = [[self.compile_expr(cell) for cell in row_term.args]
                for row_term in term.args[0].args]  # type: ignore
        return lambda fix_rows, fix_env: [
            tuple([cell(()) for cell in row]) for row in rows
        ]

    def _compile_union(self, term: Fun) -> Callable:
        branches = [self._compile(r) for r in ops.relation_inputs(term)]

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            out: list[tuple] = []
            try:
                for branch in branches:
                    out.extend(branch(fix_rows, fix_env))
            except Truncation:
                self._note_truncated()
            return _dedupe(out)
        return run

    def _compile_intersection(self, term: Fun) -> Callable:
        first, *others = [self._compile(r)
                          for r in ops.relation_inputs(term)]

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            out = _dedupe(first(fix_rows, fix_env))
            for other in others:
                keep = set(other(fix_rows, fix_env))
                out = [row for row in out if row in keep]
            return out
        return run

    def _compile_difference(self, term: Fun) -> Callable:
        left_run = self._compile(term.args[0])
        right_run = self._compile(term.args[1])

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            left = _dedupe(left_run(fix_rows, fix_env))
            right = set(right_run(fix_rows, fix_env))
            return [row for row in left if row not in right]
        return run

    # -- fixpoint -------------------------------------------------------------
    def _compile_fix(self, term: Fun) -> Callable:
        rel_const, body = term.args
        name = str(rel_const.value)  # type: ignore[union-attr]
        iterate = (self._compile_semi_naive(name, body) if self.semi_naive
                   else self._compile_naive(name, body))
        if "NEST" not in term.symbols:
            return iterate
        # NEST alone reads the schema environment (to name the
        # attributes it groups); no NEST below, no schema to derive
        catalog = self.catalog

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            inner_env = dict(fix_env)
            inner_env[name] = schema_of(term, catalog, fix_env)
            return iterate(fix_rows, inner_env)
        return run

    def _diverged(self, name: str) -> EvaluationError:
        return EvaluationError(
            f"fixpoint {name} did not converge within "
            f"{self.max_fix_iterations} iterations"
        )

    def _compile_naive(self, name: str, body: Term) -> Callable:
        step = self._compile(body)
        incr, ctx = self.stats.incr, self.context

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            total: dict[tuple, None] = {}
            try:
                for __ in range(self.max_fix_iterations):
                    incr("fix_iterations")
                    # the fixpoint-iteration check site: an iteration is
                    # far coarser than a row, so check unconditionally
                    if ctx is not None:
                        ctx.check()
                    inner_rows = dict(fix_rows)
                    inner_rows[name] = list(total)
                    before = len(total)
                    for row in step(inner_rows, fix_env):
                        total.setdefault(row, None)
                    if len(total) == before:
                        return self._account_out(list(total))
            except Truncation:
                self._note_truncated()
                return self._account_out(list(total))
            raise self._diverged(name)
        return run

    def _compile_semi_naive(self, name: str, body: Term) -> Callable:
        delta_name = f"{name}$DELTA"
        branches = (ops.relation_inputs(body) if is_fun(body, "UNION")
                    else [body])
        base = [self._compile(b) for b in branches
                if name not in mentions(b)]
        # delta rules: one variant per occurrence of the recursive
        # relation (covers the non-linear case: at least one occurrence
        # reads the delta, the others the running total).
        variants = [
            self._compile(_replace_nth_symbol(b, name, i, delta_name))
            for b in branches for i in range(mentions(b).get(name, 0))
        ]
        incr, ctx = self.stats.incr, self.context

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            inner_env = fix_env
            if name in fix_env:
                inner_env = dict(fix_env)
                inner_env[delta_name] = fix_env[name]
            total: dict[tuple, None] = {}
            try:
                for branch in base:
                    incr("fix_iterations")
                    if ctx is not None:
                        ctx.check()
                    for row in branch(fix_rows, inner_env):
                        total.setdefault(row, None)
                delta = list(total)
                guard = 0
                while delta:
                    guard += 1
                    if guard > self.max_fix_iterations:
                        raise self._diverged(name)
                    incr("fix_iterations")
                    # the fixpoint-iteration check site (semi-naive)
                    if ctx is not None:
                        ctx.check()
                    inner_rows = dict(fix_rows)
                    inner_rows[name] = list(total)
                    inner_rows[delta_name] = delta
                    produced: list[tuple] = []
                    for variant in variants:
                        produced.extend(variant(inner_rows, inner_env))
                    delta = []
                    for row in _dedupe(produced):
                        if row not in total:
                            total[row] = None
                            delta.append(row)
            except Truncation:
                self._note_truncated()
            return self._account_out(list(total))
        return run

    # -- nest / unnest ----------------------------------------------------------
    def _compile_nest(self, term: Fun) -> Callable:
        input_term, nested_list, spec = term.args
        child = self._compile(input_term)
        positions = [a.pos for a in nested_list.args]  # type: ignore
        kind = str(spec.args[1].value)  # type: ignore[union-attr]
        catalog = self.catalog

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            rows = child(fix_rows, fix_env)
            input_schema = schema_of(input_term, catalog, fix_env)
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

            ctor = _COLLECTION_CTORS[kind]
            out = [key + (ctor(items),) for key, items in groups.items()]
            return self._output(out)
        return run

    def _compile_unnest(self, term: Fun) -> Callable:
        input_term, attr = term.args
        child = self._compile(input_term)
        pos = attr.pos  # type: ignore[union-attr]
        tick = self._tick

        def run(fix_rows: dict, fix_env: dict) -> list[tuple]:
            rows = child(fix_rows, fix_env)
            out = []
            try:
                for row in rows:
                    if tick is not None:
                        tick()
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
            return self._output(out)
        return run

    # -- compilation: scalar expressions ----------------------------------------
    def compile_expr(self, expr: Term) -> Callable[[Sequence[tuple]], Any]:
        """``expr`` as one closure over ``env``, the sequence of rows
        its attribute references index (``#rel.pos``, both 1-based).
        An expression that cannot be evaluated fails when called, not
        here, so a plan over empty input never sees it."""
        if isinstance(expr, Const):
            value = str(expr.value) if expr.kind == "symbol" else expr.value
            return lambda env: value
        if isinstance(expr, AttrRef):
            return _attribute(expr)
        if not isinstance(expr, Fun):
            def fail(env):
                raise EvaluationError(f"cannot evaluate expression {expr!r}")
            return fail

        name = expr.name
        if name == "AS":
            return self.compile_expr(expr.args[0])
        parts = [self.compile_expr(a) for a in expr.args]
        if name == "AND":
            def conjunction(env) -> bool:
                for part in parts:
                    if not part(env):
                        return False
                return True
            return conjunction
        if name == "OR":
            def disjunction(env) -> bool:
                for part in parts:
                    if part(env):
                        return True
                return False
            return disjunction
        if name == "NOT":
            negated = parts[0]
            return lambda env: not negated(env)

        # a function of the ADT library, bound once; implementations
        # receive the evaluator as their context
        registry = self.catalog.registry
        try:
            fdef = registry.lookup(name, len(parts))
        except FunctionError:
            fdef = None
        if fdef is None or fdef.arity not in (None, len(parts)):
            # refused per call, after the arguments, as the registry does
            return lambda env: registry.call(
                name, [part(env) for part in parts], self)
        impl = fdef.impl
        if len(parts) == 2:
            left, right = parts
            return lambda env: impl([left(env), right(env)], self)
        return lambda env: impl([part(env) for part in parts], self)

    def _row_builder(self, exprs: list) -> Callable:
        """One tuple builder for a projection list."""
        parts = [self.compile_expr(e) for e in exprs]

        def build(env) -> tuple:
            return tuple([part(env) for part in parts])
        if not all(isinstance(e, AttrRef) for e in exprs):
            return build
        slots = [(e.rel - 1, e.pos - 1) for e in exprs]

        def pick(env) -> tuple:
            try:
                return tuple([env[rel][pos] for rel, pos in slots])
            except IndexError:
                return build(env)  # names the reference out of range
        return pick


_OPERATORS = {
    "SEARCH": Evaluator._compile_search,
    "JOIN": Evaluator._compile_join,
    "FILTER": Evaluator._compile_filter,
    "PROJECTION": Evaluator._compile_projection,
    "EMPTY": Evaluator._compile_empty,
    "DISTINCT": Evaluator._compile_distinct,
    "SEMIJOIN": lambda self, term: self._compile_existential(term, True),
    "ANTIJOIN": lambda self, term: self._compile_existential(term, False),
    "VALUES": Evaluator._compile_values,
    "UNION": Evaluator._compile_union,
    "INTERSECTION": Evaluator._compile_intersection,
    "DIFFERENCE": Evaluator._compile_difference,
    "FIX": Evaluator._compile_fix,
    "NEST": Evaluator._compile_nest,
    "UNNEST": Evaluator._compile_unnest,
}


def _attribute(ref: AttrRef) -> Callable:
    rel, pos = ref.rel - 1, ref.pos - 1

    def attribute(env):
        try:
            return env[rel][pos]
        except IndexError:
            if rel >= len(env):
                raise EvaluationError(
                    f"attribute reference #{ref.rel}.{ref.pos} exceeds "
                    f"the {len(env)} bound relation(s)"
                ) from None
            raise EvaluationError(
                f"attribute reference #{ref.rel}.{ref.pos} exceeds "
                f"the row width {len(env[rel])}"
            ) from None
    return attribute


def _concatenated(env) -> tuple:
    row: tuple = ()
    for part in env:
        row += part
    return row


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
    """(own column, 1-based; the other side's env slot and column,
    0-based) when ``conjunct`` is an equality linking input ``pos`` to
    a bound input; None otherwise."""
    if not (is_fun(conjunct, "=") and len(conjunct.args) == 2):
        return None
    left, right = conjunct.args  # type: ignore[union-attr]
    if not (isinstance(left, AttrRef) and isinstance(right, AttrRef)):
        return None
    for own, other in ((left, right), (right, left)):
        if own.rel == pos and other.rel in bound:
            return own.pos, other.rel - 1, other.pos - 1
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


def evaluate(term: Term, catalog: Catalog,
             stats: Optional[EvalStats] = None, **options) -> Result:
    """Convenience wrapper: evaluate ``term`` against ``catalog``."""
    return Evaluator(catalog, stats=stats, **options).evaluate(term)
