"""The LERA evaluator: compiles algebra terms to closures and runs them.

This is the execution substrate that makes rewriting *measurable*.
:meth:`Evaluator.compile` walks the plan once, turning every operator
into a closure ``run(frame, fix_rows, fix_env) -> rows`` and every
scalar expression -- a qualification conjunct, a projection list, a
VALUES row -- into one generated Python function ``f(env, params)``
(the :class:`~repro.terms.compile.Source` build step the rule compiler
uses): attribute references are subscripts, built-in comparisons and
arithmetic are Python operators behind an exact-type guard, and every
other call goes to the registry's impl.  What does not depend on the
data is decided during that walk, never per row.  The physical
strategy is deliberately simple and deterministic:

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

A compiled tree holds no per-run state: a run's counters, context,
shared results, ``sys.*`` snapshots, parameter vector (read by
``PARAM(i)`` leaves) and observers (an EXPLAIN ANALYZE collector, an
event bus) are its :class:`Frame`, so the plan cache
(:mod:`repro.engine.plans`) runs one tree per plan shape for any
number of statements and threads, observed or not.  What outlives a
statement besides the tree is data: a loop depth whose input is a
stored table (not shadowed by a fixpoint relation) reads its
candidates from the table's per-column hash index
(``BaseRelation.index``) -- a join probe, or a lookup at depth 0 for a
conjunct equating a column with a scalar constant.  A table write
drops its indexes; they serve only while ``=`` is the built-in one.

Work counters (see :mod:`repro.engine.stats`) are kept in locals
inside the loops and flushed once per operator run, in a ``finally``.

Lifecycle governance: when a :class:`~repro.lifecycle.QueryContext` is
active (passed explicitly or ambient), the evaluator checks it
cooperatively -- ``tick()`` per scanned tuple and join probe,
``check()`` per fixpoint iteration -- and charges its row and memory
budgets per materialized batch.  A pulled cancel token or a hard
budget trip surfaces as :class:`~repro.errors.QueryCancelled` /
:class:`~repro.errors.BudgetExceeded` at the next check site; in
*degrade* mode a budget trip raises the internal
:class:`~repro.lifecycle.Truncation` instead, which every
materializing operator catches, keeping its partial rows, flagged in
``EvalStats.truncated``.  Observers are read once per run, when the
frame is made; each operator node tests one flag.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Callable, Optional, Sequence

from repro.adt.functions import EQUALS, INLINE
from repro.adt.values import COLLECTION_CTORS, CollectionValue, TupleValue
from repro.engine.catalog import Catalog
from repro.engine.plans import PARAM
from repro.engine.stats import EvalStats
from repro.errors import EvaluationError, FunctionError
from repro.lera import ops
from repro.lera.analysis import rels_referenced
from repro.lifecycle.context import Truncation, current_context
from repro.lera.schema import Schema, schema_of
from repro.obs.events import EvalOp
from repro.terms.compile import Source
from repro.terms.term import (AttrRef, Const, Fun, Term, conjuncts, is_fun,
                              mentions, mk_fun, sym)

__all__ = ["Evaluator", "Frame", "Result", "evaluate"]

_MAX_DEFAULT_ITERATIONS = 100_000

# operators whose result is shared within one evaluation (see _compile_node)
_SHARED = frozenset(("FIX", "UNION", "SEARCH", "JOIN", "NEST"))


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


class Frame:
    """What one run of a compiled tree reads besides the tree: its
    counters, context, parameters, observers (analyze collector, bus),
    one result per shared subterm and one snapshot per ``sys.*``
    relation (a plan scanning one virtual twice sees the same rows)."""

    __slots__ = ("stats", "incr", "context", "tick", "params", "analyze",
                 "bus", "observed", "shared", "virtual", "reserved")

    def __init__(self, stats: EvalStats, context=None, params: tuple = (),
                 analyze=None, bus=None):
        self.stats = stats
        self.incr = stats.incr
        self.context = context
        self.tick = context.tick if context is not None else None
        self.params = params
        self.analyze = analyze
        self.bus = bus or None  # a bus without subscribers observes nothing
        self.observed = analyze is not None or self.bus is not None
        self.shared: dict[Term, list[tuple]] = {}
        self.virtual: dict[str, list[tuple]] = {}
        self.reserved = 0  # bytes reserved against the memory budget

    def run(self, root: Callable) -> list[tuple]:
        try:
            try:
                return root(self, {}, {})
            except Truncation:
                # the trip escaped every materializing handler (e.g. a
                # bare-relation plan): an empty prefix is the result
                self.note_truncated()
                return []
        finally:
            # zero-balance the statement's memory account: every byte
            # this run reserved is released here, completion or abort
            # alike (the hypothesis property relies on this)
            if self.reserved:
                self.context.release(self.reserved)
                self.reserved = 0

    def observe(self, term: Term, operator: str, body: Callable,
                fix_rows: dict, fix_env: dict) -> list[tuple]:
        """One observed run: collector enter / exit, then an EvalOp."""
        analyze, bus = self.analyze, self.bus
        if analyze is not None:
            analyze.enter(term)
        rows, t0 = None, perf_counter()
        try:
            self.incr("operators_evaluated")
            rows = body(self, fix_rows, fix_env)
        finally:
            # exit even when a Truncation / budget trip unwinds through
            # this node, keeping the collector's stack as the recursion
            if analyze is not None:
                analyze.exit(term, len(rows or ()), perf_counter() - t0,
                             _estimate_bytes(rows))
        if bus is not None:
            bus.emit(EvalOp(operator, len(rows), perf_counter() - t0))
        return rows

    def note_truncated(self) -> None:
        if not self.stats.truncated:
            self.incr("truncated")

    def reserve(self, rows: list) -> None:
        """Reserve the estimated bytes of one materialized row list
        against the context's memory budget (may trip it)."""
        nbytes = _estimate_bytes(rows)
        # the accountant records the reservation *before* the budget
        # check raises, so the release at the end stays zero-balanced
        self.reserved += nbytes
        self.context.reserve(nbytes)

    def account(self, rows: list) -> list:
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
            self.reserve(rows)
        except Truncation:
            self.note_truncated()
        return rows

    def charge_scan(self, rows: list) -> list:
        """Charge one relation scan; returns the (possibly truncated)
        batch to hand to the consuming operator."""
        ctx = self.context
        before = ctx.rows_charged
        try:
            ctx.tick(len(rows))
            ctx.charge_rows(len(rows))
            self.reserve(rows)
            return rows
        except Truncation:
            self.note_truncated()
            if ctx.row_budget is not None:
                return rows[:max(0, ctx.row_budget - before)]
            return []

    def output(self, out: list) -> list:
        self.incr("tuples_output", len(out))
        return self.account(out)


class Evaluator:
    """Compiles LERA terms, and evaluates them.

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
        probing a hash index on an equi-conjunct or looking a constant
        up in a table's index (ablation A6).
    max_fix_iterations:
        Safety bound on fixpoint rounds.
    obs, analyze:
        Optional observers of each :meth:`evaluate` run, carried by its
        :class:`Frame` (compiling reads neither): an event bus, which
        gets an ``EvalOp`` per operator run, and an ``AnalyzeCollector``.
    context:
        Optional :class:`~repro.lifecycle.QueryContext` governing
        :meth:`evaluate`; defaults to the ambient statement context.
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
        self.analyze = analyze
        self.context = context
        # per compile: the compiled nodes, by term
        self._compiled: dict[Term, Callable] = {}

    # -- public API ---------------------------------------------------------
    def evaluate(self, plan, schema: Optional[Schema] = None) -> Result:
        """Run ``plan`` -- a LERA term, compiled first (the reference), or
        a plan-cache :class:`~repro.engine.plans.Tree` or entry -- in a
        frame of this evaluator's counters, context and observers."""
        if isinstance(plan, Term):
            root, params = self.compile(plan), ()
        else:
            root, params = plan.root, plan.params
        rows = Frame(self.stats, self.context or current_context(), params,
                     self.analyze, self.obs).run(root)
        return Result(rows, schema if schema is not None
                      else schema_of(plan, self.catalog))

    def compile(self, term: Term) -> Callable:
        """``term`` as one closure ``run(frame, fix_rows, fix_env)``,
        for :meth:`Frame.run`; it holds no per-run state."""
        try:
            return self._compile(term)
        finally:
            self._compiled = {}

    # -- compilation: relations -----------------------------------------------
    def _compile(self, term: Term) -> Callable:
        """The closure of one plan node.  Equal subterms share one
        closure (the delta variants of a fixpoint differ from their
        branch along one path only)."""
        run = self._compiled.get(term)
        if run is None:
            run = self._compiled[term] = self._compile_node(term)
        return run

    def _compile_node(self, term: Term) -> Callable:
        operator = term.name if isinstance(term, Fun) else type(term).__name__
        try:
            if ops.is_relation_name(term):
                operator, body = "SCAN", self._compile_scan(term)
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
            def body(frame, fix_rows, fix_env, exc=exc):
                raise exc

        def node(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            if frame.observed:
                return frame.observe(term, operator, body, fix_rows, fix_env)
            frame.incr("operators_evaluated")
            return body(frame, fix_rows, fix_env)

        if not (isinstance(term, Fun) and term.name in _SHARED):
            return node
        # Common-subexpression cache: a compound subterm that does not
        # reference any in-scope fixpoint relation always evaluates to the
        # same rows within one query; the Alexander rewrite relies on this
        # (the inlined magic fixpoint is shared by every specialized
        # branch and must be computed once).

        def shared(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            if fix_rows and not mentions(term).keys().isdisjoint(fix_rows):
                return node(frame, fix_rows, fix_env)
            cache = frame.shared
            rows = cache.get(term)
            if rows is None:
                rows = cache[term] = node(frame, fix_rows, fix_env)
            return rows
        return shared

    def _compile_scan(self, term: Term) -> Callable:
        name = str(term.value)  # type: ignore[union-attr]
        catalog = self.catalog
        # the settings, not this evaluator: a cached tree holds no observer
        settings = self.semi_naive, self.hash_joins, self.max_fix_iterations

        def scan(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            if name in fix_rows:
                rows = fix_rows[name]
            elif catalog.is_table(name):
                rows = catalog.rows(name)
            elif catalog.is_virtual(name):
                snapshots = frame.virtual
                if name not in snapshots:
                    snapshots[name] = catalog.virtual_rows(name)
                rows = snapshots[name]
            elif catalog.is_view(name):
                # views are normally expanded at translation time; keep a
                # fallback so hand-built plans can reference them
                view = Evaluator(catalog, None, *settings).compile(
                    catalog.view(name).term)
                return view(frame, fix_rows, fix_env)
            else:
                raise EvaluationError(f"unknown relation {name!r}")
            frame.incr("tuples_scanned", len(rows))
            if frame.context is None:
                return list(rows)
            return frame.charge_scan(list(rows))
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

        # access paths, fixed here while ``=`` is the built-in one (a
        # replaced ``=`` may equate values a dict keeps apart): for each
        # loop depth > 0 the first equi-conjunct linking the incoming
        # input to an already-bound one, probed through a hash index on
        # the input; at depth 0 the first conjunct equating a column
        # with a scalar constant, a lookup when the input is a table
        # (its key is compiled: a lifted constant is a parameter)
        static_probes: list = [None] * n
        # (depth, table name, column): a depth whose input may be read
        # through the table's own index instead of a scan
        lookups: list[tuple[int, str, int]] = []
        if self.hash_joins and \
                self.catalog.registry.lookup_or_none("=", 2) is EQUALS:
            for depth, pos in enumerate(order):
                source = inputs[pos - 1]
                named = ops.is_relation_name(source)
                if depth:
                    bound = set(order[:depth])
                    probe = next(filter(None, (
                        _equi_probe(c, pos, bound)
                        for c in by_depth[depth])), None)
                elif named:
                    probe = next(filter(None, (
                        _constant_probe(c, pos) for c in by_depth[0])), None)
                    if probe is not None:
                        probe = probe[0], self.compile_expr(probe[1])
                else:
                    continue
                static_probes[depth] = probe
                if probe is not None and named:
                    lookups.append((depth, str(source.value), probe[0]))

        preds = [[self.compile_expr(c) for c in level]
                 for level in by_depth]
        children = [self._compile(r) for r in inputs]
        slots = [pos - 1 for pos in order]
        innermost = n - 1
        catalog = self.catalog

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            out: list[tuple] = []
            params, ctx = frame.params, frame.context
            # the join-probe cooperative check site: one tick per
            # candidate row extended at any depth
            tick = frame.tick
            # tuples_scanned, join_pairs, qual_evaluations of this run
            work = [0, 0, 0]

            def extend(depth: int) -> None:
                slot = slots[depth]
                candidates = relations[slot]
                probe = probes[depth]
                if probe is not None:
                    index = indexes[depth]
                    if index is None:
                        index = indexes[depth] = _hash_index(candidates,
                                                             probe[0])
                    if index is None:
                        probes[depth] = None  # declined: scan
                    else:
                        key = env[probe[1]][probe[2]] if depth else probe[1]
                        if not isinstance(key, CollectionValue):
                            candidates = index.get(key, ())
                if charged[depth] and candidates:
                    # read from the table itself: charged as a scan of
                    # the candidates
                    candidates = frame.charge_scan(candidates)
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
                            if not pred(env, params):
                                break
                        else:
                            if depth == innermost:
                                out.append(emit(env, params))
                            else:
                                extend(depth + 1)
                finally:
                    work[1 if depth else 0] += seen
                    work[2] += evaluated

            try:
                # constant conjuncts: decide before touching any input
                for pred in constants:
                    work[2] += 1
                    if not pred((), params):
                        break
                else:
                    probes = list(static_probes)
                    if n and probes[0] is not None:
                        probes[0] = probes[0][0], probes[0][1]((), params)
                    indexes: list = [None] * n
                    relations: list = [None] * n
                    charged = [False] * n
                    for depth, name, col in lookups:
                        index = None
                        # a fixpoint relation may shadow the table name
                        if name not in fix_rows and catalog.is_table(name):
                            table = catalog.table(name)
                            if col <= len(table.schema):
                                index = table.index(col, _hash_index)
                        if index is not None:
                            indexes[depth] = index
                            relations[slots[depth]] = table.rows
                            charged[depth] = ctx is not None
                        elif not depth:
                            probes[0] = None  # no lookup: scan
                    for slot, child in enumerate(children):
                        if relations[slot] is None:
                            relations[slot] = child(frame, fix_rows, fix_env)
                    env: list = [None] * n
                    if n:
                        extend(0)
                    else:
                        out.append(emit(env, params))
            except Truncation:
                frame.note_truncated()
            finally:
                extend = None  # the function refers to itself: free it now
                incr = frame.incr
                incr("tuples_scanned", work[0])
                incr("join_pairs", work[1])
                incr("qual_evaluations", work[2])
            return frame.output(out)
        return run

    def _compile_filter(self, term: Fun) -> Callable:
        child = self._compile(term.args[0])
        pred = self.compile_expr(term.args[1])

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            rows = child(frame, fix_rows, fix_env)
            params, tick = frame.params, frame.tick
            out = []
            evaluated = 0
            try:
                for row in rows:
                    if tick is not None:
                        tick()
                    evaluated += 1
                    if pred((row,), params):
                        out.append(row)
            except Truncation:
                frame.note_truncated()
            finally:
                frame.incr("qual_evaluations", evaluated)
            return frame.output(out)
        return run

    def _compile_projection(self, term: Fun) -> Callable:
        child = self._compile(term.args[0])
        build = self._row_builder(
            [ops.item_expr(i) for i in ops.proj_items(term)])

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            rows = child(frame, fix_rows, fix_env)
            params, tick = frame.params, frame.tick
            out = []
            try:
                for row in rows:
                    if tick is not None:
                        tick()
                    out.append(build((row,), params))
            except Truncation:
                frame.note_truncated()
            return frame.output(out)
        return run

    def _compile_empty(self, term: Fun) -> Callable:
        return lambda frame, fix_rows, fix_env: []

    def _compile_distinct(self, term: Fun) -> Callable:
        child = self._compile(term.args[0])
        return lambda frame, fix_rows, fix_env: _dedupe(
            child(frame, fix_rows, fix_env))

    def _compile_existential(self, term: Fun, keep: bool) -> Callable:
        left_run = self._compile(term.args[0])
        right_run = self._compile(term.args[1])
        pred = self.compile_expr(term.args[2])

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            left = left_run(frame, fix_rows, fix_env)
            right = right_run(frame, fix_rows, fix_env)
            params, tick = frame.params, frame.tick
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
                        if pred((row, partner), params):
                            found = True
                            break
                    if found == keep:
                        out.append(row)
            except Truncation:
                frame.note_truncated()
            finally:
                incr = frame.incr
                incr("tuples_scanned", scanned)
                incr("join_pairs", pairs)
                incr("qual_evaluations", pairs)
            return frame.output(out)
        return run

    def _compile_values(self, term: Fun) -> Callable:
        rows = [self._row_builder(row_term.args)
                for row_term in term.args[0].args]  # type: ignore
        return lambda frame, fix_rows, fix_env: [
            build((), frame.params) for build in rows]

    def _compile_union(self, term: Fun) -> Callable:
        branches = [self._compile(r) for r in ops.relation_inputs(term)]

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            out: list[tuple] = []
            try:
                for branch in branches:
                    out.extend(branch(frame, fix_rows, fix_env))
            except Truncation:
                frame.note_truncated()
            return _dedupe(out)
        return run

    def _compile_intersection(self, term: Fun) -> Callable:
        first, *others = [self._compile(r)
                          for r in ops.relation_inputs(term)]

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            out = _dedupe(first(frame, fix_rows, fix_env))
            for other in others:
                keep = set(other(frame, fix_rows, fix_env))
                out = [row for row in out if row in keep]
            return out
        return run

    def _compile_difference(self, term: Fun) -> Callable:
        left_run = self._compile(term.args[0])
        right_run = self._compile(term.args[1])

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            left = _dedupe(left_run(frame, fix_rows, fix_env))
            right = set(right_run(frame, fix_rows, fix_env))
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

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            inner_env = dict(fix_env)
            inner_env[name] = schema_of(term, catalog, fix_env)
            return iterate(frame, fix_rows, inner_env)
        return run

    def _compile_naive(self, name: str, body: Term) -> Callable:
        step = self._compile(body)
        limit = self.max_fix_iterations

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            ctx = frame.context
            total: dict[tuple, None] = {}
            try:
                for __ in range(limit):
                    frame.incr("fix_iterations")
                    # the fixpoint-iteration check site: an iteration is
                    # far coarser than a row, so check unconditionally
                    if ctx is not None:
                        ctx.check()
                    inner_rows = dict(fix_rows)
                    inner_rows[name] = list(total)
                    before = len(total)
                    for row in step(frame, inner_rows, fix_env):
                        total.setdefault(row, None)
                    if len(total) == before:
                        return frame.account(list(total))
            except Truncation:
                frame.note_truncated()
                return frame.account(list(total))
            raise _diverged(name, limit)
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
        limit = self.max_fix_iterations

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            incr, ctx = frame.incr, frame.context
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
                    for row in branch(frame, fix_rows, inner_env):
                        total.setdefault(row, None)
                delta = list(total)
                guard = 0
                while delta:
                    guard += 1
                    if guard > limit:
                        raise _diverged(name, limit)
                    incr("fix_iterations")
                    # the fixpoint-iteration check site (semi-naive)
                    if ctx is not None:
                        ctx.check()
                    inner_rows = dict(fix_rows)
                    inner_rows[name] = list(total)
                    inner_rows[delta_name] = delta
                    produced: list[tuple] = []
                    for variant in variants:
                        produced.extend(variant(frame, inner_rows,
                                                inner_env))
                    delta = []
                    for row in _dedupe(produced):
                        if row not in total:
                            total[row] = None
                            delta.append(row)
            except Truncation:
                frame.note_truncated()
            return frame.account(list(total))
        return run

    # -- nest / unnest ----------------------------------------------------------
    def _compile_nest(self, term: Fun) -> Callable:
        input_term, nested_list, spec = term.args
        child = self._compile(input_term)
        positions = [a.pos for a in nested_list.args]  # type: ignore
        kind = str(spec.args[1].value)  # type: ignore[union-attr]
        catalog = self.catalog

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            rows = child(frame, fix_rows, fix_env)
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

            ctor = COLLECTION_CTORS[kind]
            out = [key + (ctor(items),) for key, items in groups.items()]
            return frame.output(out)
        return run

    def _compile_unnest(self, term: Fun) -> Callable:
        input_term, attr = term.args
        child = self._compile(input_term)
        pos = attr.pos  # type: ignore[union-attr]

        def run(frame, fix_rows: dict, fix_env: dict) -> list[tuple]:
            rows = child(frame, fix_rows, fix_env)
            tick = frame.tick
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
                frame.note_truncated()
            return frame.output(out)
        return run

    # -- compilation: scalar expressions ----------------------------------------
    def compile_expr(self, expr: Term) -> Callable:
        """``expr`` as one generated function ``f(env, params)``: ``env``
        is the sequence of rows its attribute references index
        (``#rel.pos``, both 1-based), ``params`` the vector its
        ``PARAM(i)`` leaves index.  An expression that cannot be
        evaluated fails when called, not here, so a plan over empty
        input never sees it."""
        return self._generate([expr], row=False)

    def _row_builder(self, exprs: list) -> Callable:
        """One tuple builder ``build(env, params)`` for a projection
        list."""
        return self._generate(exprs, row=True)

    def _generate(self, exprs: Sequence[Term], row: bool) -> Callable:
        """The function of one expression, or with ``row`` of the tuple
        of ``exprs``.  A built-in comparison or arithmetic operator is
        the Python operator behind an exact-type guard; any other
        operand pair, and every other function, calls the impl the
        registry holds now (a change to it bumps the plan version)."""
        src = Source("expr", "env, params", _NAMESPACE, _HERE)
        registry = self.catalog.registry
        catalog = src.const(self.catalog)

        def body(value: str, refs: list) -> list[str]:
            """Return ``value``; an IndexError of one of the function's
            own subscripts names the reference out of range."""
            if not refs:
                return [f"return {value}"]
            return ["try:", f"    return {value}", "except IndexError as exc:",
                    f"    out_of_range(exc, env, {src.const(tuple(refs))})",
                    "    raise"]

        def emit(expr: Term, refs: list, depth: int) -> str:
            if isinstance(expr, Const):
                return src.const(str(expr.value) if expr.kind == "symbol"
                                 else expr.value)
            if isinstance(expr, AttrRef):
                refs.append(expr)
                return f"env[{expr.rel - 1!r}][{expr.pos - 1!r}]"
            if not isinstance(expr, Fun):
                return f"fail({src.const(expr)})"
            name = expr.name
            if name == PARAM:
                index = expr.args[0].value  # type: ignore[union-attr]
                return (f"params[{index}]" if type(index) is int
                        else f"params[{src.const(index)}]")
            if name == "AS":
                return emit(expr.args[0], refs, depth)
            if depth == _MAX_NESTING:
                # Python's parser bounds the nesting of one function:
                # the rest of a deep expression is a function of its own
                helper, inner = src.fresh("expr_"), []
                lines = body(emit(expr, inner, 0), inner)
                src.finished.append("\n    ".join(
                    [f"def {helper}(env, params):"] + lines))
                return f"{helper}(env, params)"
            if name == "NOT":
                return f"(not {emit(expr.args[0], refs, depth + 1)})"
            args = []  # a loop, not a comprehension: one frame a level
            for a in expr.args:
                args.append(emit(a, refs, depth + 1))
            if name in ("AND", "OR"):
                if not args:
                    return repr(name == "AND")
                tests = (" or " if name == "AND" else " and ").join(
                    f"not {a}" for a in args)
                return f"(not ({tests}))"
            try:
                fdef = registry.lookup(name, len(args))
            except FunctionError:
                fdef = None
            listed = "[" + ", ".join(args) + "]"
            if fdef is None or fdef.arity not in (None, len(args)):
                # refused per call, after the arguments, as the registry does
                return (f"{src.const(registry.call)}({src.const(name)}, "
                        f"{listed}, {catalog})")
            impl = src.const(fdef.impl)
            inline = INLINE.get(id(fdef.impl)) if len(args) == 2 else None
            if inline is None:
                return f"{impl}({listed}, {catalog})"
            symbol, types = inline
            a, b = src.fresh("v"), src.fresh("v")
            return (f"({a} {symbol} {b} if type({a} := {args[0]}) is "
                    f"type({b} := {args[1]}) in {src.const(types)} "
                    f"else {impl}([{a}, {b}], {catalog}))")

        refs: list[AttrRef] = []
        value = ("(" + "".join(emit(e, refs, 1) + ", " for e in exprs) + ")"
                 if row else emit(exprs[0], refs, 0))
        for line in body(value, refs):
            src.line(line)
        return src.build()


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


def _fail(expr: Term):
    raise EvaluationError(f"cannot evaluate expression {expr!r}")


def _out_of_range(exc: IndexError, env, refs: tuple) -> None:
    """When ``exc`` was raised by a subscript of the generated code
    itself (not inside a call: an impl's own IndexError propagates),
    raise the error of the first reference of ``refs`` that ``env``
    cannot resolve; a parameter subscript's IndexError propagates."""
    if exc.__traceback__.tb_next is not None:
        return
    for ref in refs:
        rel, pos = ref.rel - 1, ref.pos - 1
        if rel >= len(env):
            raise EvaluationError(
                f"attribute reference #{ref.rel}.{ref.pos} exceeds "
                f"the {len(env)} bound relation(s)"
            ) from None
        if pos >= len(env[rel]):
            raise EvaluationError(
                f"attribute reference #{ref.rel}.{ref.pos} exceeds "
                f"the row width {len(env[rel])}"
            ) from None


# expression levels one generated function nests (two brackets each,
# at most; the parser refuses 200)
_MAX_NESTING = 32
# what every generated expression reads besides its own bindings
_NAMESPACE = {"fail": _fail, "out_of_range": _out_of_range}
_HERE = os.path.dirname(os.path.abspath(__file__))


def _concatenated(env, params) -> tuple:
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


def _constant_probe(conjunct: Term, pos: int):
    """(own column, 1-based; the constant) when ``conjunct`` equates a
    column of input ``pos`` with a scalar constant or a parameter;
    None otherwise."""
    if not (is_fun(conjunct, "=") and len(conjunct.args) == 2):
        return None
    left, right = conjunct.args  # type: ignore[union-attr]
    for own, other in ((left, right), (right, left)):
        if isinstance(own, AttrRef) and own.rel == pos and (
                is_fun(other, PARAM) or isinstance(other, Const)
                and other.kind != "symbol"
                and not isinstance(other.value, CollectionValue)):
            return own.pos, other
    return None


def _diverged(name: str, limit: int) -> EvaluationError:
    return EvaluationError(
        f"fixpoint {name} did not converge within {limit} iterations")


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
    """Replace the n-th (0-based) occurrence of symbol ``name``.  Only
    the path down to it is rebuilt: a subterm that :func:`mentions`
    shows does not hold that occurrence is returned as it is."""
    if isinstance(term, Fun):
        for i, arg in enumerate(term.args):
            seen = mentions(arg).get(name, 0)
            if n < seen:
                args = list(term.args)
                args[i] = _replace_nth_symbol(arg, name, n, replacement)
                return mk_fun(term.name, args)
            n -= seen
        return term
    if n == 0 and mentions(term).get(name):
        return sym(replacement)
    return term


def evaluate(term: Term, catalog: Catalog,
             stats: Optional[EvalStats] = None, **options) -> Result:
    """Convenience wrapper: evaluate ``term`` against ``catalog``."""
    return Evaluator(catalog, stats=stats, **options).evaluate(term)
