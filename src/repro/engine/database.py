"""The Database facade: the end-to-end entry point of the library.

Wires the ESQL front end, the extensible rewriter and the evaluator
around one catalog::

    db = Database()
    db.execute("TABLE EDGE (Src : NUMERIC, Dst : NUMERIC)")
    db.execute("INSERT INTO EDGE VALUES (1, 2), (2, 3)")
    result = db.query("SELECT Dst FROM EDGE WHERE Src = 1")

Rewriting defaults on; every query can opt out (``rewrite=False``) --
that is the baseline the benchmarks compare against.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager, nullcontext
from time import perf_counter
from typing import Optional

from repro.core.explain import explain_json, explain_text
from repro.core.extension import Extension
from repro.obs.profile import Profiler
from repro.obs.telemetry import TraceContext, current_trace, use_trace
from repro.core.optimizer import OptimizedQuery, Optimizer
from repro.core.rewriter import QueryRewriter, RewriteLedger
from repro.engine.analyze import AnalyzeCollector
from repro.engine.catalog import Catalog
from repro.engine.evaluate import Evaluator, Result
from repro.engine.options import StatementOptions, collect
from repro.engine.plans import PlanCache
from repro.engine.stats import EvalStats
from repro.errors import (BudgetExceeded, DurabilityError, QueryCancelled,
                          TranslationError)
from repro.esql import ast
from repro.esql.fingerprint import (current_fingerprint, fingerprint_source,
                                    use_fingerprint)
from repro.esql.parser import parse_script_with_sources
from repro.lifecycle.context import (current_context, pending_dispatch,
                                     use_context)
from repro.lifecycle.registry import StatementRegistry
from repro.esql.translate import Translator
from repro.obs.events import ENGINE_EVENTS, PhaseEnd, PhaseStart
from repro.obs.workload import PlanLog, StatementStats
from repro.resilience import (QuarantineRegistry, ResiliencePolicy,
                              make_checked_validator)
from repro.rules.library import DEFAULT_SEMANTIC_LIMIT
from repro.rules.semantic import compile_integrity_constraint
from repro.terms.term import Term

__all__ = ["Database"]

# statements whose texts are kept in the DDL history: replaying them in
# order rebuilds the catalog schema (snapshots store them verbatim)
_DDL_STATEMENTS = (ast.EnumTypeDef, ast.TupleTypeDef, ast.CollTypeDef,
                   ast.TableDef, ast.ViewDef, ast.DropStmt)


def _compiled_in(slot: str) -> property:
    """An engine setting a cached tree compiles in: setting it bumps
    the plan version."""
    def assign(db, value: bool) -> None:
        setattr(db, slot, value)
        db.catalog.plan_version.bump()
    return property(lambda db: getattr(db, slot), assign)


class Database:
    """An in-memory extensible DBMS instance."""

    semi_naive = _compiled_in("_semi_naive")
    hash_joins = _compiled_in("_hash_joins")

    def __init__(self, rewrite: bool = True,
                 semantic_limit: Optional[int] = DEFAULT_SEMANTIC_LIMIT,
                 semi_naive: bool = True,
                 hash_joins: bool = True,
                 dynamic_limits: bool = False,
                 checked: bool = False,
                 resilient: bool = False,
                 antipattern: bool = False,
                 path: Optional[str] = None,
                 sync: bool = False,
                 statement_timeout_ms: Optional[float] = None,
                 row_budget: Optional[int] = None,
                 memory_budget: Optional[int] = None,
                 degrade: bool = False,
                 obs=None):
        self.catalog = Catalog()
        self.translator = Translator(self.catalog)
        self.rewrite_default = rewrite
        self.semantic_limit = semantic_limit
        self.semi_naive = semi_naive
        self.hash_joins = hash_joins
        self.dynamic_limits = dynamic_limits
        # resilience defaults (both are re-read per statement by
        # _rewrite_policy, so the CLI's .checked toggle takes effect
        # immediately); see docs/robustness.md
        self.checked = checked
        self.resilient = resilient
        # the optional anti-pattern block (OR-chain -> IN, redundant
        # DISTINCT, double negation, trivial arithmetic); installed
        # into every regenerated optimizer when True
        self.antipattern = antipattern
        # the rule quarantine: the one bench every rewrite of this
        # database skips and benches into (checked-mode blame, crashes
        # past the sandbox threshold, operators); owned here so it
        # survives regenerate_optimizer()
        self.quarantine = QuarantineRegistry(self.catalog.plan_version)
        self.plans = PlanCache(self.catalog.plan_version)  # engine/plans
        # lifecycle governance defaults: any knob set (or a chaos
        # injector mounted, or serving enabled) makes statements run
        # under a QueryContext; all None keeps the bare path
        # context-free (see docs/robustness.md)
        self.statement_timeout_ms = statement_timeout_ms
        self.row_budget = row_budget
        self.memory_budget = memory_budget
        self.degrade = degrade
        self.chaos = None
        # force governance even with no budget knob set (the CLI turns
        # this on so Ctrl-C always has a cancel token to pull)
        self.govern_statements = False
        self.lifecycle = StatementRegistry()
        self._optimizer: Optional[Optimizer] = None
        # durability: with a path, every mutating statement is WAL-logged
        # and the directory is recovered on open; without one the layer
        # is fully bypassed (null-sink style, see docs/durability.md)
        self.obs = obs
        self._ddl_history: list[str] = []
        # serving: None until enable_serving() installs a
        # ConcurrencyGuard; the statement path and the admin hold are
        # the only lock sites (see docs/server.md)
        self.guard = None
        self.durability = None
        self.recovery = None
        # commit hooks: callables fired with the statement source after
        # each committed (non-replayed) mutation, *inside* the writer
        # lock when serving -- the pool's log-shipping feed hangs off
        # this, and firing under the lock is what makes snapshot state
        # and feed version impossible to observe out of step
        self.commit_hooks: list = []
        # the rewrite-provenance ledger: owned here (not by the
        # optimizer) so it survives regenerate_optimizer(); feeds
        # sys.rewrites / sys.rule_heat
        self.ledger = RewriteLedger()
        # workload intelligence: per-fingerprint statement aggregates
        # (sys.statements) and the last-N analyzed plans
        # (sys.plan_nodes); owned here for the same lifetime reason
        self.workload = StatementStats()
        self.plan_log = PlanLog()
        if path is not None:
            from repro.durability import DurabilityManager
            self.durability = DurabilityManager(path, sync=sync, obs=obs)
            self.recovery = self.durability.recover(self)
        # the sys.* introspection catalog rides on every database; the
        # server later re-registers richer producers (sessions, slow
        # queries) when it mounts
        from repro.obs.introspect import register_introspection
        register_introspection(self)

    # -- optimizer lifecycle ---------------------------------------------------
    @property
    def optimizer(self) -> Optimizer:
        """The optimizer, regenerated after any extension change."""
        if self._optimizer is None:
            rewriter = QueryRewriter(
                self.catalog, semantic_limit=self.semantic_limit,
                quarantine=self.quarantine,
            )
            if self.antipattern:
                from repro.rules.antipattern import antipattern_block
                rewriter.add_block(antipattern_block(),
                                   before="simplify")
            self._optimizer = Optimizer(
                self.catalog, rewriter,
                dynamic_limits=self.dynamic_limits,
                ledger=self.ledger,
            )
        return self._optimizer

    def regenerate_optimizer(self) -> None:
        self._optimizer = None
        self.catalog.plan_version.bump()

    # -- serving ---------------------------------------------------------------
    def enable_serving(self, guard=None):
        """Install the reader-writer :class:`ConcurrencyGuard` (idempotent).

        After this call, every mutating statement takes an exclusive
        statement-scoped writer lock and every query runs under a
        shared lock pinned to a committed-statement snapshot -- the
        contract :class:`repro.server.Server` builds on.  Serving off
        (the default) keeps all paths lock-free.
        """
        if self.guard is None:
            from repro.server.locks import ConcurrencyGuard
            self.guard = guard if guard is not None else ConcurrencyGuard()
        return self.guard

    def _exclusive(self):
        """The admin hold: checkpoint, fsck and extension changes
        quiesce a served database (exclusive side, no version bump);
        unserved, there is nobody to exclude."""
        guard = self.guard
        return nullcontext() if guard is None else guard.exclusive()

    # -- lifecycle governance --------------------------------------------------
    def kill(self, query_id: str, reason: str = "kill") -> bool:
        """Pull the cancel token of one in-flight statement (by its
        ``sys.queries`` id); the statement's thread raises
        :class:`~repro.errors.QueryCancelled` at its next cooperative
        check, rewriting or evaluating.  Safe from any thread."""
        return self.lifecycle.kill(query_id, reason)

    @contextmanager
    def _statement_context(self, source: str = "",
                           options: Optional[StatementOptions] = None,
                           session: str = "", statement=None,
                           fingerprint=None):
        """Mint, register and retire the :class:`QueryContext` of one
        governed statement.  ``options`` are *resolved* options (the
        database defaults when omitted).

        Yields None on the ungoverned fast path (no budget knob set,
        no chaos injector, not served) so every downstream site stays
        one ``is None`` test.  An ambient context -- installed by an
        outer layer such as a test harness or the server -- is adopted
        as-is instead of minting a nested one, which is how DML
        subquery evaluators and a pooled read's in-process fallback
        share the statement's budget.

        The statement's template fingerprint (see
        :mod:`repro.esql.fingerprint`) is computed here -- from the
        parsed ``statement`` when the caller has it, and memoized on
        the source text, so a repeated statement costs one dict lookup
        (a plan-cache hit hands its own over as ``fingerprint``) -- and
        installed for the statement's extent, stamped into the
        ambient trace context when one exists.  Nested statements
        (ambient context adopted) keep the outer statement's
        fingerprint: a DML subquery is part of its statement, not a
        workload entry of its own.
        """
        ambient = current_context()
        if ambient is not None:
            yield ambient
            return
        opts = options if options is not None else collect().resolved(self)
        with ExitStack() as scope:
            trace = current_trace()
            if source:
                fp = fingerprint or fingerprint_source(source, statement)
                scope.enter_context(use_fingerprint(fp))
                if trace is not None and not trace.fingerprint:
                    trace = scope.enter_context(
                        use_trace(trace.stamped(fp.fingerprint))
                    )
            chaos = self.chaos
            if (opts.timeout_ms is None and opts.row_budget is None
                    and opts.memory_budget is None and chaos is None
                    and self.guard is None and not self.govern_statements):
                yield None
                return
            context = self.lifecycle.begin(
                session=session,
                trace_id=trace.trace_id if trace is not None else "",
                timeout_ms=opts.timeout_ms, row_budget=opts.row_budget,
                memory_budget=opts.memory_budget, degrade=opts.degrade,
                source=source,
            )
            if chaos is not None:
                # per-statement fork: Random is not thread-safe, and the
                # q<N> salt keeps concurrent statements independent yet
                # replayable
                context.chaos = chaos.fork(int(context.query_id[1:]))
            dispatch = pending_dispatch()
            if dispatch is not None:
                context.queue_wait_ms = float(
                    dispatch.get("queue_wait_ms", 0.0)
                )
            outcome = "done"
            try:
                with use_context(context):
                    yield context
            except QueryCancelled:
                outcome = "cancelled"
                raise
            except BaseException:
                outcome = "failed"
                raise
            finally:
                if outcome == "done" and context.truncated:
                    outcome = "truncated"
                if context.trip_info is not None:
                    self._note_budget_trip(context)
                self.lifecycle.finish(context, outcome)
                self._note_outcome(outcome)

    def _note_budget_trip(self, context) -> None:
        metrics = self.lifecycle.metrics
        if metrics is not None:
            metrics.inc("lifecycle.budget_trips")
        bus = self.lifecycle.obs
        if bus:
            from repro.obs.events import BudgetTripped
            resource, limit, consumed = context.trip_info
            bus.emit(BudgetTripped(
                query_id=context.query_id, session=context.session,
                resource=resource, limit=float(limit),
                consumed=float(consumed),
                truncated=context.truncated,
            ))

    def _note_outcome(self, outcome: str) -> None:
        """Fold an abnormal statement outcome into ``sys.statements``."""
        if outcome == "done":
            return
        fp = current_fingerprint()
        if fp:
            self.workload.note(fp.fingerprint, fp.template, outcome)

    # -- statements ------------------------------------------------------------
    def execute(self, script, obs=None,
                timeout_ms: Optional[float] = None,
                row_budget: Optional[int] = None,
                memory_budget: Optional[int] = None,
                degrade: Optional[bool] = None,
                session: str = "",
                options: Optional[StatementOptions] = None
                ) -> list[Result]:
        """Run an ESQL script; returns the results of any queries.

        Each mutating statement is atomic: it either fully applies or --
        on any error -- is rolled back to the statement boundary via its
        undo log.  On a durable database, committed statements are
        appended to the write-ahead log.

        With serving enabled, each mutating statement holds the writer
        lock for exactly its own duration and each query holds the
        shared reader lock, so concurrent callers interleave only at
        statement boundaries.  ``obs`` is an optional per-call event
        bus for any queries' rewrite/eval events.

        Each statement of the script runs under its *own*
        :class:`QueryContext` when governance is on (a budget knob
        set, a chaos injector mounted, or serving enabled): a
        mid-script kill cancels the in-flight statement at a statement
        boundary, leaving prior statements committed.

        ``options`` hands over every per-statement knob as one
        :class:`~repro.engine.options.StatementOptions` (the keywords
        are collected into it); ``script`` may also be the pairs
        ``parse_script_with_sources`` returned to a caller.
        """
        options = collect(options, timeout_ms=timeout_ms,
                          row_budget=row_budget,
                          memory_budget=memory_budget, degrade=degrade)
        if isinstance(script, str):
            script = parse_script_with_sources(script)
        results = []
        for statement, source in script:
            result = self._statement(statement, source, options,
                                     session=session, obs=obs)[0]
            if result is not None:
                results.append(result)
        return results

    def _statement(self, statement, source: str,
                   options: Optional[StatementOptions] = None, *,
                   session: str = "", obs=None,
                   stats: Optional[EvalStats] = None,
                   evaluate: bool = True, finish=None,
                   replay: bool = False, plan=None, key=None) -> tuple:
        """The one statement path: every public entry point, the
        serving layer, pool workers and WAL / snapshot replay run this
        (``docs/architecture.md``, "The statement path").

        Stages: resolve the options -> fingerprint + statement context
        -> guard (shared for a query, exclusive otherwise; entered
        once) -> for a query plan, evaluate, record; for anything else
        undo-logged apply, WAL append, commit hooks, record.  Stages
        are switched off by argument: ``evaluate=False`` stops after
        the plan; ``replay=True`` is the apply stage alone (recovery
        and log shipping: no context, nothing re-logged, and no lock
        -- nothing else runs yet); ``finish(optimized, analyze_nodes)``
        builds the caller's report *inside* the statement's extent;
        ``plan`` is a plan-cache hit (no ``statement``), ``key`` what a
        planned query is cached under.  Returns ``(result or report,
        optimized)``; both None for a write, ``optimized`` also for a
        hit.
        """
        if replay:
            self._apply(statement, source, commit=False)
            return None, None
        opts = options.resolved(self)
        is_query = plan is not None or ast.is_query(statement)
        guard = self.guard
        hold = (nullcontext() if guard is None
                else guard.read() if is_query else guard.write())
        with self._statement_context(
                source, opts, session, statement,
                plan.fingerprint if plan is not None else None) as ctx:
            if ctx is not None and not is_query:
                ctx.enter_phase("write")
            with hold:
                if is_query:
                    return self._plan_and_evaluate(
                        statement, source, opts, ctx, obs, stats,
                        evaluate, finish, plan, key,
                    )
                self._apply(statement, source)
                return None, None

    def _apply(self, statement, source: str, commit: bool = True) -> None:
        """The apply stage: execute one mutating statement atomically
        (undo-logged), then -- unless replaying -- commit-log it."""
        from repro.durability.atomic import UndoLog
        undo = UndoLog()
        try:
            self.translator.execute(statement, undo=undo)
        except BaseException:
            undo.rollback()
            raise
        if isinstance(statement, _DDL_STATEMENTS):
            self._ddl_history.append(source)
            self.catalog.plan_version.bump()  # types have no catalog hook
        if commit:
            if self.durability is not None:
                self.durability.log_statement(source)
            for hook in self.commit_hooks:
                hook(source)
            fp = current_fingerprint()
            if fp:
                # writes have no eval stage; still count the call
                self.workload.record_call(fp.fingerprint, fp.template)

    def _replay_statement(self, source: str) -> None:
        """Re-execute a WAL/snapshot statement without re-logging it."""
        for statement, text in parse_script_with_sources(source):
            self._statement(statement, text, replay=True)

    # -- durability ------------------------------------------------------------
    def checkpoint(self):
        """Install a snapshot and reset the WAL (durable databases).

        Served databases quiesce first: the snapshot is taken under an
        exclusive hold so it never captures a half-applied statement.
        """
        if self.durability is None:
            raise DurabilityError(
                "checkpoint needs a durable database; open one with "
                "Database(path=...)"
            )
        with self._exclusive():
            return self.durability.checkpoint(self)

    def fsck(self):
        """Run the invariant checker; returns a
        :class:`repro.durability.FsckReport`."""
        from repro.durability.check import check_database
        with self._exclusive():
            return check_database(self)

    @property
    def sync(self) -> bool:
        """The fsync-on-commit policy (False on non-durable databases)."""
        return self.durability is not None and self.durability.sync

    @sync.setter
    def sync(self, value: bool) -> None:
        if self.durability is None:
            raise DurabilityError(
                "the fsync policy needs a durable database; open one "
                "with Database(path=...)"
            )
        self.durability.sync = value

    def close(self) -> None:
        """Release the WAL handle of a durable database (no-op otherwise)."""
        if self.durability is not None:
            self.durability.close()

    def query(self, source, rewrite: Optional[bool] = None,
              stats: Optional[EvalStats] = None,
              checked: Optional[bool] = None,
              timeout_ms: Optional[float] = None,
              row_budget: Optional[int] = None,
              memory_budget: Optional[int] = None,
              degrade: Optional[bool] = None,
              session: str = "",
              obs=None,
              analyze=False,
              options: Optional[StatementOptions] = None) -> Result:
        """Run one SELECT and return its result.

        ``checked`` overrides the database-wide resilience default for
        this one call (what per-session settings ride on; see
        ``docs/server.md``).  ``timeout_ms`` / ``row_budget`` /
        ``memory_budget`` / ``degrade`` likewise override the
        lifecycle-governance defaults: any of them set
        runs the statement under a :class:`QueryContext` (killable,
        visible in ``sys.queries``).  ``obs`` is an optional per-call
        event bus for this query's rewrite/eval events (the server
        passes its telemetry bus here so request events land in the
        trace-stamped stream).  ``analyze`` turns on EXPLAIN ANALYZE
        collection for this call (True, or a pre-built
        :class:`~repro.engine.analyze.AnalyzeCollector` to inspect
        afterwards): per-operator actuals land in ``sys.plan_nodes``;
        result rows are unchanged.

        The knob keywords are collected into one
        :class:`~repro.engine.options.StatementOptions`; ``options``
        hands one over whole (a keyword actually passed wins).
        ``source`` may also be a ``(statement, source)`` pair already
        parsed.  Anything but a query is refused before it executes; a
        text planned before is served from :attr:`plans`, unparsed,
        unless checked mode must validate it against the rows now.
        """
        options = collect(
            options, rewrite=rewrite, checked=checked,
            timeout_ms=timeout_ms, row_budget=row_budget,
            memory_budget=memory_budget, degrade=degrade,
            analyze=analyze or None,
        ).resolved(self)
        key = None if options.checked else self.plans.key(source, options)
        plan = None if key is None else self.plans.get(key)
        pair = ((None, key[0]) if plan is not None
                else self._parse_query(source))
        return self._statement(*pair, options, session=session, obs=obs,
                               stats=stats, plan=plan, key=key)[0]

    def query_with_stats(
        self, source, rewrite: Optional[bool] = None,
        obs=None, checked: Optional[bool] = None,
        options: Optional[StatementOptions] = None,
    ) -> tuple[Result, EvalStats, OptimizedQuery]:
        """Run one SELECT, returning work counters and the optimization."""
        stats = EvalStats()
        options = collect(options, rewrite=rewrite, checked=checked)
        result, optimized = self._statement(
            *self._parse_query(source), options, obs=obs, stats=stats
        )
        return result, stats, optimized

    def optimize(self, source,
                 rewrite: bool = True, obs=None,
                 checked: Optional[bool] = None,
                 options: Optional[StatementOptions] = None
                 ) -> OptimizedQuery:
        """Optimize one SELECT without executing it.

        ``checked`` overrides the database-wide resilience default for
        this one call; ``rewrite`` is on unless switched off *here*
        (neither the database default nor ``options`` turns an
        EXPLAIN's rewrite off).
        """
        options = collect(options, rewrite=rewrite, checked=checked)
        return self._statement(*self._parse_query(source), options,
                               obs=obs, evaluate=False)[1]

    def explain(self, source, verbose: bool = False,
                profile: bool = False,
                checked: Optional[bool] = None,
                options: Optional[StatementOptions] = None) -> str:
        """Human-readable EXPLAIN: the report :meth:`explain_json`
        builds without executing, rendered by
        :func:`~repro.core.explain.explain_text`.  It rewrites whatever
        the defaults say; ``profile=True`` (the CLI's
        ``.profile on``) attaches a :class:`~repro.obs.profile.Profiler`,
        whose section the text then shows."""
        options = collect(options, rewrite=True, checked=checked,
                          profile=profile or None)
        return explain_text(
            self._explain(source, options, execute=False,
                          profile=options.profile),
            verbose=verbose,
        )

    def explain_json(self, source, execute: bool = False,
                     rewrite: Optional[bool] = None,
                     checked: Optional[bool] = None,
                     session: str = "",
                     analyze=False,
                     options: Optional[StatementOptions] = None) -> dict:
        """The machine-readable EXPLAIN report (one schema for the CLI
        and ``benchmarks/perf``; see ``docs/observability.md``).

        ``execute=True`` also runs the final plan, embedding the
        evaluator's work counters (absorbed into the profile metrics as
        ``eval.*``) and its per-operator events.  ``analyze`` (implies
        ``execute``) additionally collects per-operator actuals --
        rows, loops, self/total time, budget bytes -- reported in the
        schema-v8 ``analyze`` section and logged to ``sys.plan_nodes``.
        """
        options = collect(options, rewrite=rewrite, checked=checked,
                          analyze=analyze or None)
        return self._explain(source, options,
                             execute=execute or bool(options.analyze),
                             profile=True, session=session)

    def _explain(self, source, options: StatementOptions, execute: bool,
                 profile: bool, session: str = "") -> dict:
        """The stage both EXPLAIN forms run: plan one query (and with
        ``execute``, run it) under the trace the report names -- a
        direct call mints one here, so ``sys.rewrites`` and the report
        share ids -- and build the report in the ``finish`` stage,
        inside the statement's extent (its lifecycle section reads the
        ambient QueryContext)."""
        profiler = Profiler() if profile else None
        stats = EvalStats() if execute else None

        def report(optimized: OptimizedQuery, nodes) -> dict:
            if stats is not None:  # only explain_json executes
                profiler.absorb_eval_stats(stats)
            return explain_json(
                optimized, eval_stats=stats, analyze=nodes,
                profile=profiler.report() if profiler is not None else None,
            )

        with (nullcontext() if current_trace() is not None
              else use_trace(TraceContext.new())):
            return self._statement(
                *self._parse_query(source), options, session=session,
                obs=profiler.bus if profiler is not None else None,
                stats=stats, evaluate=execute, finish=report,
            )[0]

    # -- extensions -------------------------------------------------------------
    def add_integrity_constraint(self, source: str) -> None:
        """Declare a Figure 10 integrity constraint (rule-language text)."""
        rule = compile_integrity_constraint(source)
        with self._exclusive():
            self.catalog.integrity_constraints.append(rule)
            self.regenerate_optimizer()

    def install(self, extension: Extension) -> None:
        """Install a DBI extension bundle; regenerates the optimizer.

        On a served database the installation quiesces traffic first
        (exclusive hold): optimizer regeneration must never race a
        query holding a reference to the old rewriter.
        """
        from repro.rules.rule import rule_from_text
        # what can be refused is compiled (and each block looked up)
        # first: a refused bundle leaves the database as it was
        rules = [(block, rule_from_text(source))
                 for block, source in extension.rule_texts]
        constraints = [compile_integrity_constraint(source)
                       for source in extension.integrity_constraints]
        for block, __ in rules:
            self.optimizer.rewriter.block(block)
        with self._exclusive():
            for fdef in extension.functions:
                self.catalog.registry.register(fdef, replace=True)
            self.catalog.integrity_constraints.extend(constraints)
            self.regenerate_optimizer()
            optimizer = self.optimizer  # force rebuild, then decorate it
            for block, rule in rules:
                optimizer.rewriter.add_rule(rule, block)
            for name, arity, impl in extension.methods:
                optimizer.rewriter.add_method(name, arity, impl)
            for name, impl in extension.predicates:
                optimizer.rewriter.add_predicate(name, impl)

    # -- plumbing ---------------------------------------------------------------
    @staticmethod
    def _parse_query(source) -> tuple:
        """The ``(statement, source)`` pair of a query-only entry
        point (text is parsed once; an already-parsed pair passes
        through), classified *before* anything executes: DDL/DML is
        refused with the database untouched."""
        pairs = (parse_script_with_sources(source)
                 if isinstance(source, str) else [source])
        if len(pairs) != 1:
            raise TranslationError("expected exactly one statement")
        if not ast.is_query(pairs[0][0]):
            raise TranslationError("the statement is not a query")
        return pairs[0]

    def _translate_single(self, source) -> Term:
        """The LERA term of one query text (the qa oracle's and the
        rule tests' way in; refuses anything but a query)."""
        return self.translator.execute(self._parse_query(source)[0])

    def _rewrite_policy(self, opts: StatementOptions
                        ) -> Optional[ResiliencePolicy]:
        """The rewrite policy of one statement -- the one place it is
        decided.  ``checked`` asks for one (sandboxing and divergence
        detection come with it), ``resilient`` for those two
        protections alone; a statement timeout, a kill or a benched
        rule does not (the engine reads the ambient
        :class:`QueryContext` and the quarantine itself)."""
        if not (opts.checked or self.resilient):
            return None
        return ResiliencePolicy(
            validator=(make_checked_validator(self.catalog)
                       if opts.checked else None),
        )

    def _plan_and_evaluate(self, statement, source: str,
                           opts: StatementOptions, context, obs,
                           stats: Optional[EvalStats], evaluate: bool,
                           finish, plan, key) -> tuple:
        """The query stages, inside the statement's context and lock:
        plan (translate + optimize; cached under ``key``) unless
        ``plan`` is a cache hit, evaluate, record.  The engine gets
        ``obs`` only if a subscriber wants its events.

        One clock: four readings -- before translation, around the
        optimizer, after evaluation -- give ``sys.statements`` its
        ``TotalMs`` (translate + optimize + evaluate), ``RewriteMs``
        (the optimizer; 0 on a hit) and ``EvalMs``; with a bus attached
        the evaluation is the ``evaluate`` phase, timed by the same two
        readings."""
        if obs is not None and not obs.wants(ENGINE_EVENTS):
            obs = None
        t0 = perf_counter()
        if plan is not None and not self.plans.current(plan):
            # a writer changed a plan input between lookup and lock
            plan, statement = None, self._parse_query(source)[0]
        optimized = None
        # analyze: off, on (a fresh collector) or the caller's own
        collector = (AnalyzeCollector() if opts.analyze is True
                     else opts.analyze or None)
        evaluator = Evaluator(
            self.catalog, stats=stats, semi_naive=self.semi_naive,
            hash_joins=self.hash_joins, obs=obs, analyze=collector,
            context=context,
        )
        if plan is None:
            version = self.plans.version.value
            term = self.translator.execute(statement)
            if context is not None:
                context.enter_phase("optimize")
            t1 = perf_counter()
            optimized = self.optimizer.optimize(
                term, rewrite=opts.rewrite, obs=obs,
                resilience=self._rewrite_policy(opts),
            )
            t2 = perf_counter()
            if key is not None:
                plan = self.plans.put(
                    key, fingerprint_source(source, statement), optimized,
                    version, evaluator.compile)
            schema = optimized.schema
            firings = len(optimized.rewrite_result.trace)
        else:
            t1 = t2 = t0
            schema, firings = plan.schema, plan.firings
        result = nodes = None
        if evaluate:
            if context is not None:
                context.enter_phase("evaluate")
            if obs:
                obs.emit(PhaseStart("evaluate"))
            try:
                result = evaluator.evaluate(
                    plan if plan is not None else self.plans.tree(
                        optimized.final, evaluator.compile), schema)
            finally:
                t3 = perf_counter()
                if obs:
                    obs.emit(PhaseEnd("evaluate", t3 - t2))
            # record: fold the execution into the workload views
            fp = current_fingerprint()
            if fp:
                self.workload.record_call(
                    fp.fingerprint, fp.template,
                    rewrite_ms=(t2 - t1) * 1000.0,
                    eval_ms=(t3 - t2) * 1000.0,
                    total_ms=(t3 - t0) * 1000.0,
                    rows=len(result.rows), rule_firings=firings,
                    plan_hit=optimized is None,
                )
            if collector is not None:
                nodes = collector.snapshot()
                trace = current_trace()
                self.plan_log.push(
                    fp.fingerprint if fp else "",
                    trace.trace_id if trace is not None else "", nodes,
                )
        if finish is not None:
            result = finish(optimized, nodes)
        return result, optimized
