"""The serving front end: one Database, many concurrent sessions.

:class:`Server` owns the four pieces the tentpole wires together:

* the database's :class:`~repro.server.locks.ConcurrencyGuard`
  (installed via ``Database.enable_serving``), which gives DML an
  exclusive statement-scoped writer lock and queries a shared snapshot
  view;
* a :class:`~repro.server.session.SessionManager` so per-caller
  settings (rewrite, checked, deadline) never leak across callers;
* an :class:`~repro.server.admission.AdmissionController` that bounds
  the waiting room and sheds load with typed, retryable rejections;
* an observability stream (``server.*`` events and metrics on the
  server's own bus/registry) that circuit breakers and dashboards
  consume.

:class:`ServingClient` is the reference client: it composes a
:class:`~repro.server.retry.RetryPolicy` and a per-failure-class
:class:`~repro.server.retry.CircuitBreaker` (fed from the server's
event stream) around one session.

Request-scoped telemetry rides on top: the client mints one
:class:`~repro.obs.telemetry.TraceContext` per logical request (every
retry attempt is a child span of it, so they share one trace id), the
server opens a serve span per attempt, and -- with a mounted
:class:`~repro.obs.telemetry.Telemetry` hub -- every event the request
causes (admission, rewrite, evaluation, WAL commit) reaches the
exporters stamped with that trace id.  Requests that cross
``slow_query_ms`` additionally capture their full EXPLAIN report into
a ring buffer (:meth:`Server.slow_queries`) and the log sink.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from repro.errors import PoolUnavailable, ServerError, error_payload
from repro.esql import ast
from repro.esql.parser import parse_script_with_sources
from repro.lifecycle.context import use_dispatch
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TraceContext, current_trace, use_trace
from repro.server.admission import AdmissionController, AdmissionLimits
from repro.server.retry import CircuitBreaker, RetryPolicy
from repro.server.session import Session, SessionManager, SessionSettings

__all__ = ["Server", "ServingClient"]

_ERROR_HISTORY = 16  # per-session tail of typed error payloads


def classify_statement(statement) -> str:
    """The admission class of one parsed statement."""
    return "read" if ast.is_query(statement) else "write"


class Server:
    """A thread-safe, multi-session serving layer over one Database."""

    def __init__(self, db, limits: Optional[AdmissionLimits] = None,
                 idle_timeout_s: float = 300.0,
                 bus: Optional[EventBus] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 telemetry=None,
                 slow_query_ms: Optional[float] = None,
                 slow_query_capacity: int = 32,
                 watchdog_interval_s: float = 0.1,
                 workers: int = 0):
        self.db = db
        self.guard = db.enable_serving()
        self.telemetry = telemetry
        if telemetry is not None:
            # one bus + one registry for the whole request path: the
            # hub's exporters see serving, rewrite and WAL events in
            # one trace-stamped stream
            bus = telemetry.bus
            metrics = telemetry.metrics
            telemetry.wire_database(db)
        self.bus = bus if bus is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.guard.metrics = self.metrics
        self.admission = AdmissionController(
            limits, obs=self.bus, metrics=self.metrics
        )
        self.sessions = SessionManager(
            db, idle_timeout_s=idle_timeout_s, obs=self.bus
        )
        self.slow_query_ms = slow_query_ms
        self._slow: deque = deque(maxlen=max(1, slow_query_capacity))
        self._errors: dict[str, deque] = {}
        self._default: Optional[Session] = None
        self._started = time.perf_counter()
        # upgrade the sys.* catalog: the serving-backed relations
        # (sys.metrics, sys.histograms, sys.sessions,
        # sys.slow_queries) now read this server's registry and rings
        from repro.obs.introspect import register_introspection
        register_introspection(db, server=self)
        # lifecycle governance: statement cancellations and budget
        # trips land on the server's bus/registry, and the watchdog
        # reaps over-deadline statements (plus a poisoned writer lock)
        # on a short sweep so a runaway query dies within one
        # cooperative check interval of its deadline
        db.lifecycle.obs = self.bus
        db.lifecycle.metrics = self.metrics
        from repro.lifecycle import Watchdog
        self.watchdog = Watchdog(
            db.lifecycle, guard=self.guard,
            interval_s=watchdog_interval_s,
            obs=self.bus, metrics=self.metrics,
        )
        self.watchdog.start()
        # the supervised process-pool execution tier (repro.pool):
        # None until enable_pool() mounts one; eligible reads then run
        # on crash-isolated worker processes, past the GIL
        self.pool = None
        if workers:
            self.enable_pool(workers)

    # -- the execution tier ---------------------------------------------------
    def enable_pool(self, workers: int = 2, config=None):
        """Mount a :class:`repro.pool.Supervisor` with ``workers``
        worker processes (replacing any existing pool).  Eligible
        reads are dispatched out of process from here on; everything
        else -- and every pool failure -- stays on the in-process
        path."""
        from repro.pool import PoolConfig, Supervisor
        self.disable_pool()
        if config is None:
            config = PoolConfig(workers=workers)
        pool = Supervisor(self.db, config, obs=self.bus,
                          metrics=self.metrics)
        # the commit hook feeds the pool's log-shipping feed from
        # inside the writer lock, keeping worker replicas fresh
        self.db.commit_hooks.append(pool.note_write)
        pool.start()
        self.pool = pool
        self.watchdog.pool = pool
        return pool

    def disable_pool(self) -> None:
        """Stop and unmount the pool; the server serves on, fully
        in-process (the degraded mode, made permanent)."""
        pool = self.pool
        if pool is None:
            return
        self.pool = None
        self.watchdog.pool = None
        try:
            self.db.commit_hooks.remove(pool.note_write)
        except ValueError:
            pass
        pool.stop()

    # -- lifecycle governance -------------------------------------------------
    def kill(self, query_id: str, reason: str = "kill") -> bool:
        """Cancel one in-flight statement by its ``sys.queries`` id.

        Callable from any session/thread; the victim raises
        :class:`~repro.errors.QueryCancelled` at its next cooperative
        check.  Returns False when the id is unknown or already done
        (kills race completions by nature, so that is not an error).
        """
        return self.db.kill(query_id, reason)

    # -- sessions -------------------------------------------------------------
    def open_session(self, session_id: Optional[str] = None,
                     settings: Optional[SessionSettings] = None
                     ) -> Session:
        session = self.sessions.open(session_id, settings)
        self._errors[session.id] = deque(maxlen=_ERROR_HISTORY)
        return session

    def close_session(self, session_id: str) -> None:
        self.sessions.close(session_id)
        self._errors.pop(session_id, None)

    def _resolve(self, session: Optional[str]) -> Session:
        if session is None:
            if self._default is None or self._default.closed \
                    or self._default.id not in self.sessions:
                self._default = self.open_session()
            return self._default
        return self.sessions.get(session)

    # -- the serving surface --------------------------------------------------
    def query(self, source: str, session: Optional[str] = None):
        """Serve one SELECT under read admission.

        With a pool mounted, eligible reads run on a crash-isolated
        worker process; pool trouble of any kind (saturated, crash
        looping, stopped mid-flight) degrades to the in-process path
        rather than failing the request.
        """
        sess = self._resolve(session)
        return self._serve("read", sess, lambda: self._read(sess, source),
                           source=source)

    def _read(self, sess: Session, source):
        """One admitted read (text, or a pair ``execute`` parsed).
        Only a query is pool-eligible, so anything else takes the
        in-process path, which refuses it: no replica ever sees a
        write.  A pooled read's governed context is minted here (so
        ``Server.kill`` / the watchdog can cancel the statement while
        it executes out of process), and a pool that cannot take it
        falls back in-process under that same context."""
        statement, text = ((None, source) if isinstance(source, str)
                           else source)
        pool = self.pool
        if pool is None or not pool.eligible(text, statement):
            return sess.query(source)
        sess.touch()
        db = self.db
        options = sess.settings.resolved(db)
        with db._statement_context(text, options, sess.id,
                                   statement) as context:
            try:
                return pool.submit(text, "read", context=context,
                                   settings=options)
            except PoolUnavailable:
                self.metrics.inc("pool.fallbacks")
            if context is not None:
                context.worker = ""
                context.enter_phase("parse")
            return db.query(source, options=options, session=sess.id,
                            obs=sess.obs)

    def execute(self, script: str, session: Optional[str] = None):
        """Serve a script, admitting each statement under its own
        class -- so a mixed script queues as a sequence of requests,
        never holding a write slot across its read statements."""
        sess = self._resolve(session)
        results = []
        for parsed in parse_script_with_sources(script):
            if classify_statement(parsed[0]) == "read":
                results.append(self._serve(
                    "read", sess, lambda p=parsed: self._read(sess, p),
                    source=parsed[1],
                ))
            else:
                self._serve(
                    "write", sess, lambda p=parsed: sess.execute([p]),
                    source=parsed[1],
                )
        return results

    def explain_json(self, source: str, session: Optional[str] = None,
                     execute: bool = False,
                     analyze: bool = False) -> dict:
        """EXPLAIN through the serving layer; the report's ``server``
        section records the trip and its ``trace`` section (schema v4)
        carries the serve span's ids plus the queue wait as a stage.
        ``analyze=True`` executes the statement with per-operator
        actuals collected (the report's ``analyze`` section)."""
        sess = self._resolve(session)
        ticket_box = {}

        def run():
            return sess.explain_json(source, execute=execute,
                                     analyze=analyze)

        report = self._serve("read", sess, run, ticket_box=ticket_box,
                             source=source)
        ticket = ticket_box.get("ticket")
        queue_wait_ms = (ticket.queue_wait * 1e3
                         if ticket is not None else 0.0)
        report["server"] = {
            "session": sess.id,
            "request_class": "read",
            "queue_wait_ms": queue_wait_ms,
            "snapshot_version": self.guard.version,
            "shed_total": self.admission.shed_total,
            "errors": list(self._errors.get(sess.id, ())),
        }
        report["trace"]["stages"]["queue_wait_ms"] = queue_wait_ms
        pool = self.pool
        report["execution"] = {
            "tier": ("pool" if pool is not None
                     and pool.state == "running"
                     and pool.eligible(source) else "inprocess"),
            "worker": None,  # explain itself always runs in-process
            "pool": pool.summary() if pool is not None else None,
        }
        return report

    def _serve(self, klass: str, sess: Session, fn, ticket_box=None,
               source: Optional[str] = None):
        # serve span: child of the client's attempt span when the call
        # came through a ServingClient, a fresh root otherwise -- either
        # way every event emitted below runs under one trace id
        parent = current_trace()
        context = (parent.child() if parent is not None
                   else TraceContext.new())
        with use_trace(context):
            started = time.perf_counter()
            try:
                with self.admission.admit(klass) as ticket:
                    if ticket_box is not None:
                        ticket_box["ticket"] = ticket
                    # park the queue wait for the context about to be
                    # minted: sys.queries attributes a stuck statement
                    # to queueing vs execution from another session
                    with use_dispatch(
                        {"queue_wait_ms": ticket.queue_wait * 1e3}
                    ):
                        result = fn()
            except Exception as error:
                self._note_failure(klass, sess, error, started,
                                   source=source)
                raise
            duration = time.perf_counter() - started
            metrics = self.metrics
            metrics.inc(f"server.requests.{klass}")
            metrics.observe("server.request.seconds", duration)
            metrics.bucket(f"server.request.{klass}.seconds") \
                .observe(duration)
            bus = self.bus
            if bus:
                from repro.obs.events import RequestCompleted
                bus.emit(RequestCompleted(
                    request_class=klass, session=sess.id,
                    duration=duration,
                ))
            if self.slow_query_ms is not None \
                    and duration * 1e3 >= self.slow_query_ms:
                self._capture_slow(klass, sess, source, duration)
            return result

    def _capture_slow(self, klass: str, sess: Session,
                      source: Optional[str], duration: float) -> None:
        """Record one threshold-crossing request: full EXPLAIN for
        reads (re-derived outside the admission slot, so capture never
        deepens the queue), source-only for writes."""
        explain = None
        if klass == "read" and source is not None:
            try:
                explain = sess.explain_json(source)
            except Exception:
                explain = None  # the capture must never fail the request
        context = current_trace()
        # the fingerprint contextvar is statement-scoped and already
        # unwound by capture time; re-derive from the source (memoized,
        # so the steady-state cost is one dict lookup)
        fingerprint = ""
        if source:
            from repro.esql.fingerprint import fingerprint_source
            fingerprint = fingerprint_source(source).fingerprint
        self._slow.append({
            "request_class": klass,
            "session": sess.id,
            "source": source or "",
            "fingerprint": fingerprint,
            "duration_ms": duration * 1e3,
            "threshold_ms": self.slow_query_ms,
            "trace_id": context.trace_id if context else None,
            "explain": explain,
        })
        self.metrics.inc("server.slow_queries")
        bus = self.bus
        if bus:
            from repro.obs.events import SlowQuery
            bus.emit(SlowQuery(
                request_class=klass, session=sess.id,
                source=source or "", duration=duration,
                threshold_ms=self.slow_query_ms, explain=explain,
            ))

    def _note_failure(self, klass: str, sess: Session, error,
                      started: float,
                      source: Optional[str] = None) -> None:
        payload = error_payload(error)
        history = self._errors.get(sess.id)
        if history is not None:
            history.append(payload)
        self.metrics.inc(f"server.errors.{payload['error']}")
        if payload["error"] == "ServerOverloaded" and source:
            # shed requests never reach the engine's statement
            # recording, so charge the fingerprint here
            from repro.esql.fingerprint import fingerprint_source
            fp = fingerprint_source(source)
            self.db.workload.note(fp.fingerprint, fp.template, "shed")
        bus = self.bus
        if bus:
            from repro.obs.events import RequestFailed
            bus.emit(RequestFailed(
                request_class=klass, session=sess.id,
                failure_class=payload["error"],
                duration=time.perf_counter() - started,
            ))

    # -- clients --------------------------------------------------------------
    def client(self, session: Optional[str] = None,
               retry: Optional[RetryPolicy] = None,
               breaker: Optional[CircuitBreaker] = None
               ) -> "ServingClient":
        """A retrying, circuit-breaking client bound to one session."""
        sess = (self.open_session() if session is None
                else self.sessions.get(session))
        return ServingClient(self, sess, retry=retry, breaker=breaker)

    # -- introspection --------------------------------------------------------
    def stats(self) -> dict:
        return {
            "sessions": len(self.sessions),
            "snapshot_version": self.guard.version,
            "admission": self.admission.snapshot(),
            "requests": self.metrics.counters_with_prefix("server."),
            "pool": (self.pool.summary() if self.pool is not None
                     else None),
        }

    def metrics_text(self) -> str:
        """The server's registry in Prometheus text exposition format
        (the scrape endpoint's payload)."""
        return self.metrics.expose_text()

    def slow_queries(self) -> list[dict]:
        """The slow-query ring, oldest first (empty when no
        ``slow_query_ms`` threshold is configured)."""
        return list(self._slow)

    # canned ESQL behind .top: the dashboard *is* four queries over
    # the sys.* catalog, so dashboard data and user-queryable data can
    # never disagree (one code path, not two) -- and every .top frame
    # exercises the full parse/rewrite/evaluate pipeline
    _TOP_COUNTERS = "SELECT Name, Value FROM sys.metrics"
    _TOP_LATENCIES = ("SELECT Name, Count, P50, P95, P99 "
                      "FROM sys.histograms WHERE Kind = 'bucket'")
    _TOP_HEAT = ("SELECT Block, Rule, Fired, DeltaTotal "
                 "FROM sys.rule_heat")
    _TOP_SLOW = ("SELECT TraceId, Fingerprint, Class, Session, Source, "
                 "DurationMs, ThresholdMs FROM sys.slow_queries")
    _TOP_STATEMENTS = ("SELECT Fingerprint, Template, Calls, Rows, "
                       "TotalMs, MeanMs, RuleFirings "
                       "FROM sys.statements")

    def top(self, limit: int = 10) -> dict:
        """One dashboard frame: throughput, latency percentiles per
        request class, shedding, queue depth, per-rule heat and the
        slow-query tail (what the CLI's ``.top`` renders).  ``limit``
        caps the rule-heat list (the slow tail stays at limit/2).

        Relation-backed data comes from the canned ESQL above; only
        ephemeral admission state (queue depth, active slots) is read
        live, since a queue length has no point-in-time row identity.
        """
        limit = max(1, limit)
        uptime = max(1e-9, time.perf_counter() - self._started)
        db = self.db
        counters = dict(db.query(self._TOP_COUNTERS).rows)
        total = (counters.get("server.requests.read", 0)
                 + counters.get("server.requests.write", 0))
        shed = self.admission.shed_total
        latencies = {
            row[0]: row for row in db.query(self._TOP_LATENCIES).rows
        }
        requests = {}
        for klass in ("read", "write"):
            row = latencies.get(f"server.request.{klass}.seconds")
            requests[klass] = {
                "count": row[1] if row else 0,
                "p50_ms": row[2] * 1e3 if row else 0.0,
                "p95_ms": row[3] * 1e3 if row else 0.0,
                "p99_ms": row[4] * 1e3 if row else 0.0,
            }
        heat = db.query(self._TOP_HEAT).rows[:limit]
        slow = db.query(self._TOP_SLOW).rows[-max(1, limit // 2):]
        return {
            "uptime_s": uptime,
            "qps": total / uptime,
            "requests": requests,
            "shed_total": shed,
            "shed_rate": shed / (total + shed) if total + shed else 0.0,
            "queue_depth": self.admission.queue_depth(),
            "active": self.admission.snapshot()["active"],
            "sessions": len(self.sessions),
            "snapshot_version": self.guard.version,
            "rule_heat": [
                {"block": block, "rule": rule, "fired": fired,
                 "complexity_delta": delta}
                for block, rule, fired, delta in heat
            ],
            "slow_queries": [
                {"trace_id": trace_id, "fingerprint": fingerprint,
                 "request_class": klass,
                 "session": session, "source": source,
                 "duration_ms": duration_ms,
                 "threshold_ms": threshold_ms}
                for trace_id, fingerprint, klass, session, source,
                duration_ms, threshold_ms in slow
            ],
        }

    def top_statements(self, limit: int = 10) -> list[dict]:
        """The workload leaderboard: per-fingerprint aggregates from
        ``sys.statements`` (hottest first), served through the same
        canned-ESQL path as the rest of the dashboard."""
        rows = self.db.query(self._TOP_STATEMENTS).rows[:max(1, limit)]
        return [
            {"fingerprint": fingerprint, "template": template,
             "calls": calls, "rows": nrows, "total_ms": total_ms,
             "mean_ms": mean_ms, "rule_firings": rule_firings}
            for fingerprint, template, calls, nrows, total_ms,
            mean_ms, rule_firings in rows
        ]

    def close(self) -> None:
        self.disable_pool()
        self.watchdog.stop()
        self.db.lifecycle.cancel_all("server-shutdown")
        for session in self.sessions.sessions():
            self.sessions.close(session.id)
        self._errors.clear()
        self._default = None
        if self.telemetry is not None:
            self.telemetry.close()


class ServingClient:
    """Retry + circuit-breaker composition around one server session.

    The breaker consumes the server's event stream (it sees *every*
    session's failures, which is the point: a storm of evaluation
    errors opens the circuit before this client burns its own retry
    budget discovering the outage).  ``ServerError`` rejections are
    retried under the policy; engine errors (parse, evaluation, ...)
    propagate immediately but still count toward the breaker.
    """

    def __init__(self, server: Server, session: Session,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.server = server
        self.session = session
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.breaker.attach(server.bus)

    def _guarded(self, fn):
        # one trace per logical request: every retry attempt is a child
        # span, so a shed first try and the successful second share a
        # trace id with distinct span ids
        root = TraceContext.new()

        def attempt():
            with use_trace(root.child()):
                self.breaker.check()
                return fn()
        return self.retry.call(attempt)

    def query(self, source: str):
        return self._guarded(
            lambda: self.server.query(source, session=self.session.id)
        )

    def execute(self, script: str):
        return self._guarded(
            lambda: self.server.execute(script, session=self.session.id)
        )

    def close(self) -> None:
        self.breaker.detach()
        if self.session.id in self.server.sessions:
            self.server.close_session(self.session.id)
