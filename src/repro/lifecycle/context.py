"""The per-statement :class:`QueryContext`: cancel token, deadline,
row/memory budgets, and the cheap cooperative check the evaluator
polls.

One context governs one statement end to end.  It is minted by
:class:`~repro.engine.database.Database` when the statement enters
(only when governance is actually on -- a knob set or the database
served -- so the bare single-threaded path stays context-free), parked
in the :class:`~repro.lifecycle.registry.StatementRegistry` for
``sys.queries`` visibility, installed as the ambient context for the
statement's dynamic extent via :func:`use_context`, and retired in a
``finally``.

Design points, in cost order:

* ``tick(n)`` is the per-row hot-path call: one integer add and one
  compare against ``check_interval`` (default 64), plus a read of the
  ``_flagged`` fast-path bool.  A full :meth:`check` -- chaos hook,
  cancel token, deadline clock -- runs at most once per interval, so
  cancellation latency is bounded by one cooperative check interval
  while per-row overhead stays a couple of attribute reads.
* ``cancel()`` may be called from *any* thread (``Server.kill``, the
  watchdog, Ctrl-C).  It sets a ``threading.Event`` plus the
  ``_flagged`` bool; the evaluating thread observes the flag on its
  next tick and raises :class:`~repro.errors.QueryCancelled` from its
  own stack -- cooperative, never asynchronous, so undo logs and lock
  releases run normally.
* Budgets honour the opt-in *degrade* mode: a deadline or row/memory
  trip raises the internal :class:`Truncation` control-flow exception
  instead of :class:`~repro.errors.BudgetExceeded`; each materializing
  operator catches it and keeps its partial output, so the statement
  completes with a truncated (flagged) result.  A *cancel* always
  raises -- kill beats degrade.
* Memory accounting (:class:`MemoryAccountant`) is reservation-based
  and deliberately coarse: the evaluator charges an estimate per
  materialized row list and releases everything on exit.  The property
  suite asserts the invariants that make it trustworthy: ``current``
  never goes negative, ``peak`` is monotone, and completion is
  zero-balanced.

Propagation is by context variable (mirroring
:mod:`repro.obs.telemetry`): evaluators constructed deep inside the
translator -- DML predicate subqueries -- inherit the statement's
context through :func:`current_context` without signature plumbing.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from repro.errors import BudgetExceeded, QueryCancelled

__all__ = [
    "QueryContext", "MemoryAccountant", "Truncation",
    "current_context", "use_context", "pending_dispatch",
    "use_dispatch", "DEFAULT_CHECK_INTERVAL",
]

# rows/probes between full checks: the cancellation-latency bound
DEFAULT_CHECK_INTERVAL = 64

_current: ContextVar[Optional["QueryContext"]] = ContextVar(
    "repro_query_context", default=None
)

# dispatch attribution set by the serving layer *before* the context is
# minted (the context is created deep inside Database, which has no
# signature slot for queue-wait): the server parks the admission
# ticket's queue wait here and _statement_context stamps it onto the
# freshly minted context
_dispatch: ContextVar[Optional[dict]] = ContextVar(
    "repro_query_dispatch", default=None
)


def current_context() -> Optional["QueryContext"]:
    """The ambient :class:`QueryContext`, or None outside a governed
    statement."""
    return _current.get()


def pending_dispatch() -> Optional[dict]:
    """The dispatch attribution (``queue_wait_ms``) parked by the
    serving layer for the statement about to be minted, or None."""
    return _dispatch.get()


@contextmanager
def use_dispatch(info: Optional[dict]):
    """Park dispatch attribution for the dynamic extent of one served
    statement (consumed by ``Database._statement_context``)."""
    token = _dispatch.set(info)
    try:
        yield info
    finally:
        _dispatch.reset(token)


@contextmanager
def use_context(context: Optional["QueryContext"]):
    """Install ``context`` for the dynamic extent of one statement."""
    token = _current.set(context)
    try:
        yield context
    finally:
        _current.reset(token)


class Truncation(Exception):
    """Internal control flow: a budget tripped under degrade mode.

    Not a :class:`~repro.errors.ReproError` on purpose -- it must never
    escape the evaluator.  Each materializing operator catches it and
    returns its partial output; once raised, every subsequent tick
    re-raises immediately, so the operator stack unwinds with at most
    one extra raise per level and the statement finishes promptly with
    whatever it had.
    """

    def __init__(self, resource: str, limit, consumed):
        self.resource = resource
        self.limit = limit
        self.consumed = consumed
        super().__init__(f"{resource} budget exhausted "
                         f"({consumed} of {limit})")


class MemoryAccountant:
    """Reservation-based byte accounting for one statement.

    ``reserve``/``release`` keep a running ``current`` and a monotone
    ``peak``; the budget check lives in the owning context (which knows
    about degrade mode), not here.  Thread-safe: the watchdog and
    ``sys.queries`` read ``current``/``peak`` from other threads.
    """

    __slots__ = ("current", "peak", "_lock")

    def __init__(self):
        self.current = 0
        self.peak = 0
        self._lock = threading.Lock()

    def reserve(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError("cannot reserve a negative byte count")
        with self._lock:
            self.current += nbytes
            if self.current > self.peak:
                self.peak = self.current
            return self.current

    def release(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError("cannot release a negative byte count")
        with self._lock:
            if nbytes > self.current:
                raise ValueError(
                    f"releasing {nbytes} bytes but only "
                    f"{self.current} are reserved"
                )
            self.current -= nbytes
            return self.current

    def release_all(self) -> int:
        """Drop every outstanding reservation; returns what was held."""
        with self._lock:
            held, self.current = self.current, 0
            return held


class QueryContext:
    """Cancel token + deadline + row/memory budgets for one statement.

    Parameters
    ----------
    query_id:
        The id ``sys.queries`` shows (minted by the registry).
    session / trace_id:
        Attribution for ``sys.queries`` (empty outside serving).
    timeout_ms:
        Wall-clock budget for the *whole* statement -- rewrite and
        evaluation read the one deadline instant (the rewrite engine's
        :meth:`poll` degrades it, the evaluator's :meth:`check` trips).
    row_budget:
        Cap on rows charged (scanned + produced) during evaluation.
    memory_budget:
        Cap in bytes on the accountant's ``current`` reservation.
    degrade:
        True turns deadline/row/memory trips into result truncation
        (flagged in ``EvalStats`` and explain) instead of
        :class:`~repro.errors.BudgetExceeded`.
    check_interval:
        Ticks between full checks; the cancellation-latency bound.
    source:
        The statement text (shown, truncated, in ``sys.queries``).
    chaos:
        Optional :class:`~repro.lifecycle.chaos.ChaosInjector` probed
        on every full check (deterministic fault injection).
    """

    def __init__(self, query_id: str = "q0", session: str = "",
                 trace_id: str = "",
                 timeout_ms: Optional[float] = None,
                 row_budget: Optional[int] = None,
                 memory_budget: Optional[int] = None,
                 degrade: bool = False,
                 check_interval: int = DEFAULT_CHECK_INTERVAL,
                 source: str = "", chaos=None):
        self.query_id = query_id
        self.session = session
        self.trace_id = trace_id
        self.timeout_ms = timeout_ms
        self.row_budget = row_budget
        self.memory_budget = memory_budget
        self.degrade = degrade
        self.check_interval = max(1, int(check_interval))
        self.source = source
        self.chaos = chaos
        # dispatch attribution: how long admission queued the request
        # before this statement started, and which pool worker (if
        # any) is executing it -- both surfaced by sys.queries so a
        # stuck statement is attributable from another session
        self.queue_wait_ms = 0.0
        self.worker = ""
        self.memory = MemoryAccountant()
        self.started = time.perf_counter()
        # set by the registry at retirement so done-ring rows report a
        # frozen duration, not time-since-start forever after
        self.finished: Optional[float] = None
        self.phase = "parse"
        self.rows_charged = 0
        self.truncated = False
        # (resource, limit, consumed) of the first budget trip, kept so
        # the database can emit one BudgetTripped event at retirement
        self.trip_info: Optional[tuple] = None
        self.cancel_reason: Optional[str] = None
        self._cancel_event = threading.Event()
        # fast-path mirror of the event: a bool read is cheaper than
        # Event.is_set() on the per-tick path
        self._flagged = False
        self._ticks = 0
        self._deadline = (
            self.started + timeout_ms / 1e3
            if timeout_ms is not None else None
        )

    # -- clocks ---------------------------------------------------------------
    def elapsed_ms(self) -> float:
        end = (self.finished if self.finished is not None
               else time.perf_counter())
        return (end - self.started) * 1e3

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds left on the statement budget (None: unbounded).

        For carrying the budget to another process -- a pool replica
        has its own clock, so the supervisor ships a duration; inside
        this process everything reads the deadline instant itself.
        """
        if self._deadline is None:
            return None
        return max(0.0, (self._deadline - time.perf_counter()) * 1e3)

    # -- cancellation (any thread) -------------------------------------------
    def cancel(self, reason: str = "kill") -> bool:
        """Pull the cancel token; returns False if already pulled.

        Safe from any thread.  The first reason wins (a watchdog reap
        racing a user kill reports whichever arrived first).
        """
        if self._cancel_event.is_set():
            return False
        self.cancel_reason = reason
        self._cancel_event.set()
        self._flagged = True
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancel_event.is_set()

    def over_deadline(self) -> bool:
        """True once the wall clock has passed the statement deadline
        (the watchdog's reap predicate; False when unbounded)."""
        return (self._deadline is not None
                and time.perf_counter() > self._deadline)

    # -- the cooperative check path ------------------------------------------
    def tick(self, n: int = 1) -> None:
        """The per-row call: count ``n`` units of work, run a full
        :meth:`check` every ``check_interval`` ticks (immediately when
        the cancel flag is already up)."""
        self._ticks += n
        if self._flagged or self._ticks >= self.check_interval:
            self._ticks = 0
            self.check()

    def check(self) -> None:
        """One full governance check: chaos hook, cancel token,
        deadline.  Fixpoint iterations call this directly (an
        iteration is far coarser than a row)."""
        if self.truncated:
            # already degrading: unwind the operator stack fast
            raise Truncation("deadline", self.timeout_ms,
                             self.elapsed_ms())
        chaos = self.chaos
        if chaos is not None:
            chaos.maybe_inject(self)
        if self.poll():
            self._trip("deadline", self.timeout_ms, self.elapsed_ms())

    def poll(self) -> bool:
        """:meth:`check` without the chaos hook and without the trip --
        what the rewrite engine asks between rule applications (fault
        injection stays an evaluation-phase hook, and a late rewrite
        degrades instead of failing): raises
        :class:`~repro.errors.QueryCancelled` once the token is pulled,
        True once the deadline has passed."""
        if self._flagged:
            raise QueryCancelled(
                f"query {self.query_id} cancelled "
                f"({self.cancel_reason})",
                query_id=self.query_id,
                reason=self.cancel_reason or "kill",
                phase=self.phase, elapsed_ms=self.elapsed_ms(),
            )
        return (self._deadline is not None
                and time.perf_counter() > self._deadline)

    # -- budgets --------------------------------------------------------------
    def charge_rows(self, n: int) -> None:
        """Account ``n`` rows scanned/produced against the row budget."""
        self.rows_charged += n
        budget = self.row_budget
        if budget is not None and self.rows_charged > budget:
            self._trip("rows", budget, self.rows_charged)

    def tick_write(self, n: int = 1) -> None:
        """The DML row-loop call: :meth:`tick` plus
        :meth:`charge_rows`, with budget trips always hard.  Degrade
        mode must never truncate a mutation -- a partial write is
        exactly what the undo log exists to prevent -- so the degrade
        flag is suspended for the duration of the check and any trip
        raises :class:`~repro.errors.BudgetExceeded`, rolling the
        whole statement back."""
        degrade, self.degrade = self.degrade, False
        try:
            self.tick(n)
            self.charge_rows(n)
        finally:
            self.degrade = degrade

    def reserve(self, nbytes: int) -> None:
        """Reserve bytes against the memory budget."""
        current = self.memory.reserve(nbytes)
        budget = self.memory_budget
        if budget is not None and current > budget:
            self._trip("memory", budget, current)

    def release(self, nbytes: int) -> None:
        self.memory.release(nbytes)

    def _trip(self, resource: str, limit, consumed) -> None:
        if self.trip_info is None:
            self.trip_info = (resource, limit, consumed)
        if self.degrade:
            self.truncated = True
            raise Truncation(resource, limit, consumed)
        raise BudgetExceeded(
            f"query {self.query_id} exceeded its {resource} budget "
            f"({consumed:g} of {limit:g})",
            query_id=self.query_id, resource=resource,
            limit=limit, consumed=consumed,
        )

    # -- bookkeeping ----------------------------------------------------------
    def enter_phase(self, phase: str) -> None:
        self.phase = phase

    def snapshot(self) -> dict:
        """A point-in-time view (the ``sys.queries`` row and the
        explain ``lifecycle`` section read this)."""
        return {
            "query_id": self.query_id,
            "session": self.session,
            "trace_id": self.trace_id,
            "phase": self.phase,
            "source": self.source,
            "timeout_ms": self.timeout_ms,
            "row_budget": self.row_budget,
            "memory_budget": self.memory_budget,
            "degrade": self.degrade,
            "queue_wait_ms": self.queue_wait_ms,
            "worker": self.worker,
            "rows_charged": self.rows_charged,
            "bytes_reserved": self.memory.current,
            "bytes_peak": self.memory.peak,
            "elapsed_ms": self.elapsed_ms(),
            "truncated": self.truncated,
            "cancelled": self.cancelled,
            "cancel_reason": self.cancel_reason,
        }

    def __repr__(self) -> str:
        return (f"QueryContext({self.query_id!r}, phase={self.phase!r}, "
                f"rows={self.rows_charged}, "
                f"elapsed={self.elapsed_ms():.1f}ms)")
