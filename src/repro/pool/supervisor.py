"""The :class:`Supervisor`: N crash-isolated worker processes behind
the admission controller.

Supervision-tree shape (see ``docs/architecture.md``)::

    Server
     ├── Watchdog ──────────── sweeps the registry *and* the pool
     └── Supervisor (pool)
          ├── monitor thread ── heartbeats, death, backoff respawn
          ├── w1 ── worker process (private Database replica)
          ├── w2 ── worker process
          └── wN ── worker process

Each worker is spawned with a snapshot-codable view of the database --
the durability layer's :func:`~repro.durability.snapshot.snapshot_state`
payload, shipped over the boot frame -- and kept fresh by *log
shipping*: every committed write lands in the supervisor's statement
feed (via ``Database.commit_hooks``, inside the writer lock, so feed
order is commit order), and each dispatch carries the delta the worker
has not applied yet.  A read dispatched at feed version V therefore
evaluates against exactly the committed state at V: statement-boundary
snapshot semantics, the same isolation a guard-held in-process read
gets.

Failure policy (the retry/no-retry matrix of ``docs/robustness.md``):

* a worker that dies mid-read (crash, kill -9, missed heartbeats) is
  detected, the read is retried transparently on a fresh worker up to
  ``read_retry_limit`` times, then surfaces as a typed
  :class:`~repro.errors.WorkerCrashed`;
* statements with side effects never retry -- the worker's undo log
  rolled its private copy back, and the parent database was never
  touched, so the crash surfaces immediately;
* dead workers respawn with exponential backoff; too many crashes
  inside ``crash_loop_window_s`` open a crash-loop circuit breaker
  (state ``broken``) and the pool refuses work until the cooldown
  elapses -- the server degrades to in-process execution, it does not
  fail requests;
* cancellation is real: a pulled cancel token is forwarded to the
  worker, and a worker that does not unwind within ``kill_grace_s``
  is SIGKILLed (the statement still surfaces as
  :class:`~repro.errors.QueryCancelled`, not as a crash).

The monitor thread owns failure detection; the server's
:class:`~repro.lifecycle.watchdog.Watchdog` additionally calls
:meth:`Supervisor.sweep` each tick, so orphaned processes are reaped
even if the monitor itself is wedged (idempotent by construction).
"""

from __future__ import annotations

import os
import signal as signal_mod
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import repro
import repro.errors as errors_mod
from repro.adt.types import ANY, BOOLEAN, CHAR, INT, NUMERIC, REAL
from repro.durability.snapshot import decode_value, snapshot_state
from repro.engine.evaluate import Result
from repro.engine.options import collect
from repro.errors import (PoolUnavailable, QueryCancelled, ReproError,
                          WorkerCrashed)
from repro.esql.fingerprint import fingerprint_source
from repro.lera.schema import Schema
from repro.pool.protocol import FrameError, recv_frame, send_frame

__all__ = ["PoolConfig", "Supervisor"]

_ATOMIC_TYPES = {t.name: t for t in (BOOLEAN, INT, REAL, NUMERIC, CHAR)}
_SOURCE_PREVIEW = 80  # sys.workers shows at most this much statement


@dataclass(frozen=True)
class PoolConfig:
    """Tuning knobs of one :class:`Supervisor`."""

    workers: int = 2
    heartbeat_interval_s: float = 0.25
    heartbeat_miss_limit: int = 8       # hang after limit * interval
    boot_timeout_s: float = 30.0
    restart_backoff_base_s: float = 0.05
    restart_backoff_max_s: float = 2.0
    crash_loop_threshold: int = 5       # crashes inside the window ...
    crash_loop_window_s: float = 10.0   # ... that open the breaker
    crash_loop_cooldown_s: float = 2.0
    read_retry_limit: int = 2           # transparent read retries
    kill_grace_s: float = 0.5           # cancel -> SIGKILL escalation
    monitor_interval_s: float = 0.05
    feed_high_water: int = 512          # trim the shipped-log feed


class _Pending:
    """One in-flight dispatch: the waiter parks on ``event``."""

    __slots__ = ("event", "reply", "crash")

    def __init__(self):
        self.event = threading.Event()
        self.reply: Optional[dict] = None
        self.crash: Optional[WorkerCrashed] = None


class _Slot:
    """One worker seat: survives respawns (the ``w<N>`` identity)."""

    def __init__(self, slot_id: str):
        self.id = slot_id
        self.proc: Optional[subprocess.Popen] = None
        self.state = "dead"  # starting | idle | busy | dead | stopped
        self.version = 0
        self.last_beat = 0.0
        self.spawned_at = 0.0
        self.next_spawn = 0.0
        self.statements = 0
        self.restarts = 0
        self.consecutive_crashes = 0
        self.pending: Optional[_Pending] = None
        self.current: Optional[tuple] = None  # (query_id, source)
        self.cancel_sent_at: Optional[float] = None
        self.deliberate_kill = False  # escalation/shutdown, not a crash


class Supervisor:
    """Owns the worker processes; the server's pooled-read entry point."""

    def __init__(self, db, config: Optional[PoolConfig] = None,
                 obs=None, metrics=None):
        self.db = db
        self.config = config or PoolConfig()
        self.obs = obs
        self.metrics = metrics
        self.state = "stopped"  # running | broken | stopped
        self.dispatched = 0
        self.retries = 0
        self.crashes = 0
        self.escalated_kills = 0
        self._lock = threading.Lock()
        self._slots = [_Slot(f"w{i + 1}")
                       for i in range(max(1, self.config.workers))]
        self._feed: list[str] = []
        self._feed_base = 0
        self._version = 0
        self._crash_times: list[float] = []
        self._broken_until = 0.0
        self._ids = 0
        self._stop_event = threading.Event()
        self._monitor: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "Supervisor":
        if self.state != "stopped":
            return self
        self.state = "running"
        self._stop_event.clear()
        for slot in self._slots:
            self._spawn(slot)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-pool-monitor",
            daemon=True,
        )
        self._monitor.start()
        self._emit_state("started")
        return self

    def stop(self, timeout_s: float = 5.0) -> None:
        with self._lock:
            if self.state == "stopped":
                return
            self.state = "stopped"
        self._stop_event.set()
        for slot in self._slots:
            proc = slot.proc
            if proc is None or proc.poll() is not None:
                continue
            slot.deliberate_kill = True
            try:
                send_frame(proc.stdin, {"type": "shutdown"})
            except (OSError, ValueError):
                pass
            try:
                proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            slot.state = "stopped"
            # a dispatcher parked on this worker must not hang forever
            pending = slot.pending
            if pending is not None and not pending.event.is_set():
                pending.crash = WorkerCrashed(
                    f"pool stopped while {slot.id} was executing",
                    worker_id=slot.id,
                )
                pending.event.set()
        monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=timeout_s)
            self._monitor = None
        self._emit_state("stopped")

    def wait_ready(self, timeout_s: float = 30.0, workers: int = 1) -> bool:
        """Block until at least ``workers`` workers are idle (tests and
        the CLI's ``.workers on`` use this for determinism)."""
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            with self._lock:
                ready = sum(1 for s in self._slots if s.state == "idle")
            if ready >= workers:
                return True
            time.sleep(0.01)
        return False

    # -- the committed-write feed (log shipping) -------------------------------
    def note_write(self, source: str) -> None:
        """Record one committed write; invoked by
        ``Database.commit_hooks`` *inside* the writer lock, so feed
        order is commit order and snapshots taken under the read lock
        are always consistent with the version counter."""
        with self._lock:
            self._feed.append(source)
            self._version += 1
            if len(self._feed) > self.config.feed_high_water:
                # "starting" seats count: they snapshotted at their
                # spawn version and still need every statement after
                # it -- trimming past them would leave the replica
                # permanently stale (whole committed batches missing)
                live = [s.version for s in self._slots
                        if s.state in ("starting", "idle", "busy")]
                floor = min(live) if live else self._version
                drop = floor - self._feed_base
                if drop > 0:
                    del self._feed[:drop]
                    self._feed_base = floor

    # -- eligibility -----------------------------------------------------------
    def eligible(self, source: str, statement=None) -> bool:
        """Pool-routable statements: queries -- classified from the
        fingerprint memo, or from ``statement`` / one parse on a miss;
        anything else is applied or refused in-process, never shipped
        to a replica -- that are not about the ``sys.*`` catalog (a
        worker's replica has its own -- empty -- registry and metrics,
        so introspection must stay in-process)."""
        return ("sys." not in source.lower()
                and fingerprint_source(source, statement).is_query)

    # -- dispatch --------------------------------------------------------------
    def submit(self, source: str, request_class: str = "read",
               context=None, settings=None):
        """Execute one statement on a worker; the server's pooled read
        path.  Reads retry transparently on :class:`WorkerCrashed` up
        to the budget; anything else fails fast (the matrix in
        ``docs/robustness.md``).  ``settings`` (a
        :class:`~repro.engine.options.StatementOptions`) is resolved
        against *this* database here and shipped whole, so the replica
        never applies defaults of its own."""
        settings = collect(settings).resolved(self.db)
        attempts = 0
        while True:
            attempts += 1
            slot = self._acquire()
            try:
                return self._dispatch(slot, source, request_class,
                                      context, settings)
            except WorkerCrashed as crash:
                crash.attempts = attempts
                if context is not None:
                    crash.query_id = context.query_id
                retryable = (request_class == "read"
                             and attempts <= self.config.read_retry_limit)
                if not retryable:
                    raise
                self.retries += 1
                self._inc("pool.retries")
                fp = fingerprint_source(source)
                self.db.workload.note(fp.fingerprint, fp.template,
                                      "retries")
                self._wait_for_seat()

    def _wait_for_seat(self) -> None:
        """Between retry attempts, wait for a replacement worker to
        come up (the crashed seat respawns with backoff); give up and
        let :meth:`_acquire` raise its typed refusal if the pool
        breaks or the boot window elapses."""
        deadline = time.perf_counter() + self.config.boot_timeout_s
        while time.perf_counter() < deadline:
            with self._lock:
                if self.state != "running" or any(
                        s.state == "idle" for s in self._slots):
                    return
            time.sleep(0.01)

    def _acquire(self) -> _Slot:
        with self._lock:
            if self.state == "stopped":
                raise PoolUnavailable("the pool is stopped",
                                      reason="stopped")
            if self.state == "broken":
                raise PoolUnavailable(
                    "the pool's crash-loop circuit breaker is open",
                    reason="circuit-open",
                    retry_after=max(
                        0.0, self._broken_until - time.perf_counter()
                    ),
                )
            for slot in self._slots:
                if slot.state == "idle":
                    slot.state = "busy"
                    return slot
            raise PoolUnavailable(
                "every pool worker is busy", reason="saturated",
                retry_after=self.config.heartbeat_interval_s,
            )

    def _dispatch(self, slot: _Slot, source: str, request_class: str,
                  context, settings):
        config = self.config
        with self._lock:
            self._ids += 1
            request_id = self._ids
            version = self._version
            behind = slot.version - self._feed_base
            sync = (list(self._feed[behind:version - self._feed_base])
                    if behind >= 0 else None)
            if sync is not None:
                slot.pending = pending = _Pending()
                slot.current = (
                    context.query_id if context is not None else "",
                    source,
                )
                slot.cancel_sent_at = None
        if sync is None:
            # the feed was trimmed past this replica (cannot happen
            # while the trim floor honours every live seat, but a
            # stale replica must never serve): respawn it
            self._kill_worker(slot, "stale")
            self._handle_death(slot)
            raise WorkerCrashed(
                f"{slot.id} fell behind the statement feed",
                worker_id=slot.id,
            )
        if context is not None:
            context.worker = slot.id
            context.enter_phase("pool")
        message = {
            "type": "execute", "id": request_id, "source": source,
            "sync": sync, "version": version,
            "options": dict(vars(settings)),
            "quarantine": sorted(self.db.quarantine.rules()),
        }
        if context is not None:
            # the replica gets what is left of the statement's budget
            message["options"]["timeout_ms"] = context.remaining_ms()
        try:
            try:
                send_frame(slot.proc.stdin, message)
            except (OSError, ValueError):
                self._handle_death(slot)
                raise pending.crash or WorkerCrashed(
                    f"{slot.id} died before accepting the statement",
                    worker_id=slot.id,
                )
            self.dispatched += 1
            self._inc("pool.dispatched")
            chaos = getattr(context, "chaos", None)
            if chaos is not None and chaos.should_kill_worker():
                # the ChaosInjector extension: kill -9 this worker
                # mid-statement and let the failover machinery answer
                self._kill_worker(slot, "chaos")
            self._await(slot, pending, context)
            return self._settle(slot, pending, version, context,
                                source)
        finally:
            with self._lock:
                slot.pending = None
                slot.current = None
                slot.cancel_sent_at = None
                if slot.state == "busy":
                    slot.state = "idle"

    def _await(self, slot: _Slot, pending: _Pending, context) -> None:
        config = self.config
        while not pending.event.wait(0.02):
            now = time.perf_counter()
            if context is not None and context.cancelled \
                    and slot.cancel_sent_at is None:
                slot.cancel_sent_at = now
                try:
                    send_frame(slot.proc.stdin, {
                        "type": "cancel",
                        "reason": context.cancel_reason or "kill",
                    })
                except (OSError, ValueError):
                    pass  # already dying; poll() below settles it
            if slot.cancel_sent_at is not None \
                    and now - slot.cancel_sent_at > config.kill_grace_s:
                # the worker ignored the cancel frame for a whole grace
                # period: escalate to SIGKILL (a stuck native call has
                # no cooperative check to unwind from)
                self.escalated_kills += 1
                self._inc("pool.kills.escalated")
                self._kill_worker(slot, "cancel", deliberate=True)
                slot.cancel_sent_at = now  # one escalation only
            if slot.proc.poll() is not None:
                self._handle_death(slot)

    def _settle(self, slot: _Slot, pending: _Pending, version: int,
                context, source: str = ""):
        reply = pending.reply
        if reply is None:
            crash = pending.crash or WorkerCrashed(
                f"{slot.id} died mid-statement", worker_id=slot.id
            )
            if isinstance(crash, WorkerCrashed):
                self._inc("pool.requests.crashed")
            raise crash
        slot.version = max(slot.version, reply.get("version", version))
        slot.statements += 1
        slot.consecutive_crashes = 0  # a served statement proves health
        if context is not None:
            context.rows_charged += int(reply.get("rows_charged", 0))
            peak = int(reply.get("bytes_peak", 0))
            if peak > context.memory.peak:
                context.memory.peak = peak
            if reply.get("truncated"):
                context.truncated = True
        self._observe("pool.request.seconds",
                      float(reply.get("elapsed_ms", 0.0)) / 1e3)
        # workload intelligence: the statement executed on the worker's
        # replica, so its per-fingerprint record (and, under analyze
        # mode, the per-operator actuals) ride home in the reply frame
        # and fold into the *parent* database's aggregates
        statement = reply.get("statement")
        if statement:
            self.db.workload.merge_call(statement)
        # a rule the replica benched (checked-mode blame, a crash past
        # the threshold) is benched for every tier: the next frame to
        # any replica lists it
        for entry in reply.get("quarantine", ()):
            self.db.quarantine.note(entry["block"], entry["rule"],
                                    entry["detail"], entry["source"])
        nodes = reply.get("analyze")
        if nodes:
            from repro.obs.telemetry import current_trace
            trace = current_trace()
            fingerprint = (statement or {}).get("fingerprint", "")
            if not fingerprint and source:
                fingerprint = fingerprint_source(source).fingerprint
            self.db.plan_log.push(
                fingerprint, trace.trace_id if trace else "", nodes,
            )
        if reply["type"] == "error":
            raise self._remote_error(reply.get("payload") or {})
        return self._decode_result(reply)

    # -- failure detection -----------------------------------------------------
    def sweep(self) -> None:
        """One supervision pass: reap dead/hung workers, settle their
        in-flight statements, re-arm the circuit breaker, respawn due
        seats.  Called by the monitor thread every
        ``monitor_interval_s`` *and* by the server's watchdog -- both
        callers are safe because every action is idempotent."""
        if self.state == "stopped":
            return
        now = time.perf_counter()
        config = self.config
        for slot in self._slots:
            proc = slot.proc
            if slot.state in ("starting", "idle", "busy"):
                if proc is None or proc.poll() is not None:
                    self._handle_death(slot)
                    continue
                hang_after = (config.heartbeat_miss_limit
                              * config.heartbeat_interval_s)
                if slot.state == "starting":
                    if now - slot.spawned_at > config.boot_timeout_s:
                        self._kill_worker(slot, "boot-timeout")
                        self._handle_death(slot)
                elif slot.last_beat and now - slot.last_beat > hang_after:
                    self._inc("pool.heartbeat_misses")
                    self._kill_worker(slot, "hang")
                    self._handle_death(slot)
        with self._lock:
            if self.state == "broken" and now >= self._broken_until:
                self.state = "running"
                self._crash_times.clear()
                rearm = True
            else:
                rearm = False
        if rearm:
            self._emit_state("cooldown-elapsed")
        if self.state == "running":
            for slot in self._slots:
                if slot.state == "dead" and now >= slot.next_spawn:
                    self._spawn(slot)

    # watchdog-facing alias: the supervision tree's second, independent
    # reaper (see the module docstring)
    reap_orphans = sweep

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(self.config.monitor_interval_s):
            try:
                self.sweep()
            except Exception:  # the supervisor must never die
                pass

    def _kill_worker(self, slot: _Slot, reason: str,
                     deliberate: bool = False) -> None:
        proc = slot.proc
        if proc is None or proc.poll() is not None:
            return
        slot.deliberate_kill = deliberate
        try:
            os.kill(proc.pid, signal_mod.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        self._inc(f"pool.kills.{reason}")
        bus = self.obs
        if bus:
            from repro.obs.events import WorkerKilled
            bus.emit(WorkerKilled(worker=slot.id, pid=proc.pid,
                                  reason=reason))

    def _handle_death(self, slot: _Slot) -> None:
        """Settle one dead worker: reap the process, fail or cancel
        its in-flight statement, count the crash, schedule the
        respawn.  Idempotent -- the monitor, the watchdog and a
        dispatcher may all notice the same death."""
        with self._lock:
            if slot.state in ("dead", "stopped"):
                return
            slot.state = "dead"
            pending = slot.pending
            cancelling = slot.cancel_sent_at is not None
            deliberate = slot.deliberate_kill
            slot.deliberate_kill = False
        proc = slot.proc
        returncode = None
        if proc is not None:
            try:
                returncode = proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                returncode = proc.wait()
        exit_code = returncode if (returncode or 0) >= 0 else None
        died_signal = -returncode if (returncode or 0) < 0 else None
        crashed = not deliberate
        if crashed:
            self.crashes += 1
            self._inc("pool.crashes")
        slot.consecutive_crashes += 1
        slot.restarts += 1
        backoff = min(
            self.config.restart_backoff_max_s,
            self.config.restart_backoff_base_s
            * (2 ** (slot.consecutive_crashes - 1)),
        )
        slot.next_spawn = time.perf_counter() + backoff
        bus = self.obs
        if bus:
            from repro.obs.events import WorkerExited
            bus.emit(WorkerExited(
                worker=slot.id, pid=proc.pid if proc else 0,
                exit_code=exit_code, signal=died_signal,
                crashed=crashed,
            ))
        if pending is not None and not pending.event.is_set():
            if cancelling:
                # a cancel escalation is a successful kill, not a fault
                pending.crash = QueryCancelled(
                    f"statement killed with its worker {slot.id}",
                    query_id=slot.current[0] if slot.current else "",
                    reason="kill", phase="pool",
                )
            else:
                pending.crash = WorkerCrashed(
                    f"worker {slot.id} died mid-statement "
                    f"(exit_code={exit_code}, signal={died_signal})",
                    worker_id=slot.id,
                    query_id=slot.current[0] if slot.current else "",
                    exit_code=exit_code, signal=died_signal,
                )
            pending.event.set()
        if crashed:
            self._note_crash_for_breaker()

    def _note_crash_for_breaker(self) -> None:
        config = self.config
        now = time.perf_counter()
        opened = False
        with self._lock:
            self._crash_times.append(now)
            floor = now - config.crash_loop_window_s
            self._crash_times = [t for t in self._crash_times
                                 if t >= floor]
            if (self.state == "running"
                    and len(self._crash_times)
                    >= config.crash_loop_threshold):
                self.state = "broken"
                self._broken_until = now + config.crash_loop_cooldown_s
                opened = True
        if opened:
            self._inc("pool.circuit_opened")
            self._emit_state("crash-loop")

    # -- spawning --------------------------------------------------------------
    def _spawn(self, slot: _Slot) -> None:
        db = self.db
        guard = db.guard
        hold = nullcontext() if guard is None else guard.read()
        with hold:
            # under the read lock no write is mid-commit, and
            # note_write runs inside the writer lock, so state and
            # version cannot disagree
            state = snapshot_state(db.catalog, db._ddl_history, 0)
            with self._lock:
                version = self._version
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)
        ))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else ""
        )
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.pool.worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, env=env,
            )
        except OSError:
            slot.next_spawn = (time.perf_counter()
                               + self.config.restart_backoff_max_s)
            return
        with self._lock:
            slot.proc = proc
            slot.state = "starting"
            slot.version = version
            slot.spawned_at = time.perf_counter()
            slot.last_beat = 0.0
        boot = {
            "type": "boot", "state": state, "feed": [],
            "version": version,
            "heartbeat_interval_s": self.config.heartbeat_interval_s,
            # the replica's constructor arguments: every engine-level
            # setting the parent has
            "engine": {
                "rewrite": db.rewrite_default,
                "semantic_limit": db.semantic_limit,
                "semi_naive": db.semi_naive,
                "hash_joins": db.hash_joins,
                "dynamic_limits": db.dynamic_limits,
                "antipattern": db.antipattern,
                "checked": db.checked,
                "deadline_ms": db.deadline_ms,
                "resilient": db.resilient,
            },
        }
        try:
            send_frame(proc.stdin, boot)
        except (OSError, ValueError):
            return  # sweep() reaps and reschedules
        threading.Thread(
            target=self._read_loop, args=(slot, proc), daemon=True,
            name=f"repro-pool-{slot.id}-reader",
        ).start()
        if slot.restarts:
            self._inc("pool.restarts")
        bus = self.obs
        if bus:
            from repro.obs.events import WorkerSpawned
            bus.emit(WorkerSpawned(worker=slot.id, pid=proc.pid,
                                   restarts=slot.restarts))

    def _read_loop(self, slot: _Slot, proc: subprocess.Popen) -> None:
        """Per-worker frame pump: heartbeats refresh liveness, results
        complete the parked dispatcher.  Exits on EOF; death itself is
        settled by :meth:`sweep` / :meth:`_handle_death`."""
        stream = proc.stdout
        while True:
            try:
                frame = recv_frame(stream)
            except FrameError:
                return
            if frame is None:
                return
            kind = frame["type"]
            if kind == "heartbeat":
                slot.last_beat = time.perf_counter()
            elif kind == "hello":
                with self._lock:
                    slot.last_beat = time.perf_counter()
                    if slot.state == "starting" and slot.proc is proc:
                        slot.state = "idle"
            elif kind in ("result", "error"):
                pending = slot.pending
                if pending is not None and not pending.event.is_set():
                    pending.reply = frame
                    pending.event.set()

    # -- result / error reconstruction -----------------------------------------
    def _decode_result(self, reply: dict) -> Result:
        rows = reply.get("rows")
        if rows is None:
            return Result([], Schema([]))
        schema = Schema([
            (name, _ATOMIC_TYPES.get(type_name, ANY))
            for name, type_name in zip(reply.get("columns", ()),
                                       reply.get("types", ()))
        ])
        return Result(
            [tuple(decode_value(v) for v in row) for row in rows],
            schema,
        )

    def _remote_error(self, payload: dict) -> ReproError:
        name = payload.get("error", "ReproError")
        message = payload.get("message", name)
        cls = getattr(errors_mod, name, None)
        error: ReproError
        if isinstance(cls, type) and issubclass(cls, ReproError):
            try:
                error = cls(message)
            except TypeError:
                error = ReproError(f"{name}: {message}")
        else:
            error = ReproError(f"{name}: {message}")
        for attr in errors_mod._PAYLOAD_ATTRS:
            if attr in payload:
                try:
                    setattr(error, attr, payload[attr])
                except AttributeError:
                    pass
        return error

    # -- introspection ---------------------------------------------------------
    def rows(self) -> list[tuple]:
        """The ``sys.workers`` rows."""
        now = time.perf_counter()
        out = []
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            proc = slot.proc
            query_id, source = slot.current or ("", "")
            beat_age = ((now - slot.last_beat) * 1e3
                        if slot.last_beat else -1.0)
            out.append((
                slot.id, proc.pid if proc is not None else 0,
                slot.state, slot.statements, slot.restarts,
                query_id, source[:_SOURCE_PREVIEW], beat_age,
                slot.version,
            ))
        return out

    def summary(self) -> dict:
        """The explain ``execution.pool`` object and ``.workers status``."""
        with self._lock:
            busy = sum(1 for s in self._slots if s.state == "busy")
            ready = sum(1 for s in self._slots if s.state == "idle")
        return {
            "workers": len(self._slots), "busy": busy, "ready": ready,
            "state": self.state, "dispatched": self.dispatched,
            "retries": self.retries, "crashes": self.crashes,
            "restarts": sum(s.restarts for s in self._slots),
            "version": self._version,
        }

    # -- telemetry -------------------------------------------------------------
    def _inc(self, name: str) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc(name)

    def _observe(self, name: str, value: float) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.observe(name, value)

    def _emit_state(self, reason: str) -> None:
        bus = self.obs
        if bus:
            from repro.obs.events import PoolStateChanged
            bus.emit(PoolStateChanged(
                state=self.state, reason=reason,
                workers=len(self._slots),
            ))
