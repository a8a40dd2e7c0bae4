"""Typed observability events emitted across the rewrite -> evaluate
pipeline.

Every event is a small frozen dataclass with an ``as_dict()`` export so
sinks can serialise uniformly.  The taxonomy mirrors the pipeline:

=================  ======================================================
``PhaseStart``     a pipeline phase opens: the optimizer's optimize,
``PhaseEnd``       typecheck, rewrite and typecheck_final, the statement
                   path's evaluate; End carries the duration
``BlockStart``     a rule block begins / finishes one activation;
``BlockEnd``       End carries applications, checks, budget consumed
``PassEnd``        one full pass over the block sequence completed
``RuleAttempt``    one rule condition was checked at a position
``RuleFired``      a rule application changed the term; carries the
                   duration of the block scan that found it
``ConstraintCheck``a constraint predicate was evaluated
``MethodCall``     a rule-conclusion method ran (success or failure)
``EvalOp``         the evaluator finished one algebra operator (its
                   duration includes its inputs')
``RuleFailed``     a sandboxed rule raised while being applied
``RuleQuarantined``a failing rule crossed its failure threshold
``Degraded``       a deadline / work budget expired; best-so-far kept
``DivergenceDetected`` a block halted on oscillation or growth
``CheckedRollback``checked mode rejected (rolled back) a block
``WalAppend``      one statement frame was committed to the WAL
``WalReplay``      recovery finished scanning/replaying the WAL
``CheckpointTaken``a snapshot was installed and the WAL reset
``RecoveryCompleted`` a durable database finished opening
``FsckViolation``  the invariant checker found a broken invariant
``SessionOpened``  a serving session was created
``SessionClosed``  a session ended (explicit close or idle reaping)
``RequestAdmitted``the admission controller let a request through;
                   carries its class and queue wait
``RequestShed``    the admission controller rejected a request
                   (queue full or queue-wait deadline); carries the
                   ``retry_after`` hint
``RequestCompleted``a served request finished successfully
``RequestFailed``  a served request raised; carries the failure class
``BreakerStateChanged`` a circuit breaker moved between closed /
                   open / half-open
``SubscriberDetached`` the bus dropped a failing subscriber
``SlowQuery``      a served request crossed the slow-query threshold;
                   carries the full EXPLAIN report for reads
``StatementCancelled`` a statement's cancel token was pulled
                   (kill / watchdog / Ctrl-C / chaos)
``BudgetTripped``  a statement crossed a deadline/row/memory budget;
                   ``truncated`` tells degrade from hard failure
``WatchdogReaped`` the watchdog reaped an over-deadline statement or
                   recovered a poisoned writer lock
``WorkerSpawned``  the pool supervisor started (or restarted) a worker
``WorkerExited``   a worker process ended; ``crashed`` distinguishes a
                   fault from a deliberate shutdown/escalation
``WorkerKilled``   the supervisor SIGKILLed a worker (hang / cancel
                   escalation / chaos / boot timeout)
``PoolStateChanged`` the pool moved between running / broken / stopped
``EquivalenceViolation`` a differential check confirmed a rewrite
                   changed a query's answer (checked-mode blame or the
                   ``repro.qa`` fuzz harness); carries the blamed rule
                   when localization succeeded
``FuzzCompleted``  one ``repro.qa`` fuzz run finished; carries the
                   seed, case count and violation count
=================  ======================================================

Durations are monotonic-clock seconds (``time.perf_counter`` deltas).
Producers only construct events when a bus with subscribers is attached
(the null-sink fast path), so the hot paths stay allocation-free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional

__all__ = [
    "Event", "PhaseStart", "PhaseEnd", "BlockStart", "BlockEnd",
    "PassEnd", "RuleAttempt", "RuleFired", "ConstraintCheck",
    "MethodCall", "EvalOp", "RuleFailed", "RuleQuarantined",
    "Degraded", "DivergenceDetected", "CheckedRollback",
    "WalAppend", "WalReplay", "CheckpointTaken", "RecoveryCompleted",
    "FsckViolation",
    "SessionOpened", "SessionClosed", "RequestAdmitted", "RequestShed",
    "RequestCompleted", "RequestFailed", "BreakerStateChanged",
    "SubscriberDetached", "SlowQuery",
    "StatementCancelled", "BudgetTripped", "WatchdogReaped",
    "WorkerSpawned", "WorkerExited", "WorkerKilled", "PoolStateChanged",
    "EquivalenceViolation", "FuzzCompleted", "ENGINE_EVENTS",
]


@dataclass(frozen=True)
class Event:
    """Base class of every observability event."""

    def as_dict(self) -> dict:
        out = asdict(self)
        out["event"] = type(self).__name__
        return out

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class PhaseStart(Event):
    """A pipeline phase opens (optimize / typecheck / rewrite /
    typecheck_final / evaluate)."""

    phase: str


@dataclass(frozen=True)
class PhaseEnd(Event):
    phase: str
    duration: float = 0.0


@dataclass(frozen=True)
class BlockStart(Event):
    """One activation of a rule block begins."""

    block: str
    pass_index: int
    limit: Optional[int]
    count: str


@dataclass(frozen=True)
class BlockEnd(Event):
    block: str
    pass_index: int
    applications: int
    checks: int
    budget_consumed: int
    duration: float


@dataclass(frozen=True)
class PassEnd(Event):
    """One full pass over the block sequence completed."""

    pass_index: int
    changed: bool
    duration: float


@dataclass(frozen=True)
class RuleAttempt(Event):
    """One rule condition check at one term position."""

    block: str
    rule: str
    path: tuple
    matched: bool
    duration: float


@dataclass(frozen=True)
class RuleFired(Event):
    """A rule application that changed the term."""

    block: str
    rule: str
    path: tuple
    size_before: int
    size_after: int
    duration: float


@dataclass(frozen=True)
class ConstraintCheck(Event):
    """A constraint predicate was evaluated during a rule attempt."""

    constraint: str
    outcome: bool


@dataclass(frozen=True)
class MethodCall(Event):
    """A rule-conclusion method ran; failure means the rule did not
    fire."""

    name: str
    arity: int
    success: bool
    duration: float


@dataclass(frozen=True)
class EvalOp(Event):
    """The evaluator finished one algebra operator."""

    operator: str
    rows_out: int
    duration: float


@dataclass(frozen=True)
class RuleFailed(Event):
    """A sandboxed rule raised during application; the rewrite went on."""

    block: str
    rule: str
    path: tuple
    error: str
    count: int


@dataclass(frozen=True)
class RuleQuarantined(Event):
    """A rule crossed its failure threshold and is skipped from now on."""

    block: str
    rule: str
    failures: int


@dataclass(frozen=True)
class Degraded(Event):
    """A deadline or work budget expired; the best-so-far term is
    returned with ``degraded=True`` instead of raising."""

    reason: str
    applications: int
    elapsed: float


@dataclass(frozen=True)
class DivergenceDetected(Event):
    """A block halted on an oscillation cycle or unbounded growth."""

    block: str
    kind: str
    rules: tuple
    cycle_length: int


@dataclass(frozen=True)
class CheckedRollback(Event):
    """Checked mode rejected a block whose results diverged on the
    sampled database; the block was rolled back."""

    block: str
    detail: str
    applications_discarded: int


@dataclass(frozen=True)
class WalAppend(Event):
    """One statement frame was committed to the write-ahead log."""

    lsn: int
    bytes: int
    sync: bool
    duration: float


@dataclass(frozen=True)
class WalReplay(Event):
    """Recovery finished scanning the WAL (replayed + stale records)."""

    records: int
    bytes_truncated: int
    duration: float


@dataclass(frozen=True)
class CheckpointTaken(Event):
    """A snapshot was installed atomically and the WAL was reset."""

    lsn: int
    bytes: int
    relations: int
    duration: float


@dataclass(frozen=True)
class RecoveryCompleted(Event):
    """A durable database finished opening (snapshot + WAL replay)."""

    snapshot_lsn: int
    replayed: int
    bytes_truncated: int
    duration: float


@dataclass(frozen=True)
class FsckViolation(Event):
    """The fsck invariant checker found a broken invariant."""

    kind: str
    detail: str


@dataclass(frozen=True)
class SessionOpened(Event):
    """A serving session was created."""

    session: str


@dataclass(frozen=True)
class SessionClosed(Event):
    """A serving session ended; ``reason`` is ``"closed"`` (explicit)
    or ``"reaped"`` (idle timeout)."""

    session: str
    reason: str
    idle: float


@dataclass(frozen=True)
class RequestAdmitted(Event):
    """The admission controller let one request through."""

    request_class: str
    queue_wait: float
    queue_depth: int


@dataclass(frozen=True)
class RequestShed(Event):
    """The admission controller rejected one request under load."""

    request_class: str
    reason: str
    retry_after: float
    queue_depth: int


@dataclass(frozen=True)
class RequestCompleted(Event):
    """One served request finished successfully."""

    request_class: str
    session: str
    duration: float


@dataclass(frozen=True)
class RequestFailed(Event):
    """One served request raised; ``failure_class`` is the error's
    class name (the key circuit breakers aggregate on)."""

    request_class: str
    session: str
    failure_class: str
    duration: float


@dataclass(frozen=True)
class BreakerStateChanged(Event):
    """A circuit breaker moved between closed / open / half-open."""

    failure_class: str
    state: str
    failures: int


@dataclass(frozen=True)
class SubscriberDetached(Event):
    """The bus dropped a subscriber after too many consecutive
    handler errors; delivered to the *remaining* subscribers so dead
    telemetry is itself observable instead of silently dark."""

    handler: str
    errors: int


@dataclass(frozen=True)
class SlowQuery(Event):
    """A served request exceeded the slow-query threshold; the full
    EXPLAIN report (reads only -- writes have no plan) rides along so
    the log sink captures the plan that was slow, not just the fact."""

    request_class: str
    session: str
    source: str
    duration: float
    threshold_ms: float
    explain: Optional[dict]


@dataclass(frozen=True)
class StatementCancelled(Event):
    """A statement's cancel token was pulled; ``reason`` names the
    actor (``kill`` / ``watchdog`` / ``keyboard-interrupt`` /
    ``chaos``).  Emitted by the registry when the token is pulled --
    the evaluating thread observes it at its next cooperative check."""

    query_id: str
    session: str
    reason: str
    phase: str
    elapsed_ms: float


@dataclass(frozen=True)
class BudgetTripped(Event):
    """A statement crossed one of its budgets; ``truncated`` is True
    when degrade mode turned the trip into a partial result instead of
    a :class:`~repro.errors.BudgetExceeded`."""

    query_id: str
    session: str
    resource: str
    limit: float
    consumed: float
    truncated: bool


@dataclass(frozen=True)
class WatchdogReaped(Event):
    """The watchdog acted: ``kind`` is ``"statement"`` (an
    over-deadline statement was cancelled) or ``"writer_lock"`` (a
    poisoned writer lock was force-released)."""

    query_id: str
    kind: str


@dataclass(frozen=True)
class WorkerSpawned(Event):
    """The pool supervisor started a worker process; ``restarts`` is
    how many times this seat has respawned (0 for the first boot)."""

    worker: str
    pid: int
    restarts: int


@dataclass(frozen=True)
class WorkerExited(Event):
    """A worker process ended.  ``crashed`` is False for deliberate
    ends (shutdown, cancel escalation); exactly one of ``exit_code``
    and ``signal`` is set (signal 9 for the chaos suite's kill -9)."""

    worker: str
    pid: int
    exit_code: Optional[int]
    signal: Optional[int]
    crashed: bool


@dataclass(frozen=True)
class WorkerKilled(Event):
    """The supervisor SIGKILLed a worker; ``reason`` names why
    (``hang`` / ``cancel`` / ``chaos`` / ``boot-timeout`` /
    ``shutdown``)."""

    worker: str
    pid: int
    reason: str


@dataclass(frozen=True)
class PoolStateChanged(Event):
    """The pool moved between ``running`` / ``broken`` / ``stopped``;
    ``reason`` names the trigger (``started`` / ``crash-loop`` /
    ``cooldown-elapsed`` / ``stopped``)."""

    state: str
    reason: str
    workers: int


@dataclass(frozen=True)
class EquivalenceViolation(Event):
    """A differential check confirmed a rewrite changed a query's
    answer.  ``source`` is ``checked`` (the in-engine validator blamed
    a rolled-back block) or ``fuzz`` (the ``repro.qa`` harness);
    ``rule`` is the blamed rule when step-replay localization
    succeeded, else empty."""

    source: str
    block: str
    rule: str
    detail: str


@dataclass(frozen=True)
class FuzzCompleted(Event):
    """One ``repro.qa`` fuzz run finished."""

    seed: int
    cases: int
    violations: int
    duration: float


# everything the optimizer and the evaluator emit during one query: the
# statement path hands them its bus only when some subscriber wants one
# of these (EventBus.wants)
ENGINE_EVENTS = frozenset({
    PhaseStart, PhaseEnd, BlockStart, BlockEnd, PassEnd, RuleAttempt,
    RuleFired, ConstraintCheck, MethodCall, EvalOp, RuleFailed,
    RuleQuarantined, Degraded, DivergenceDetected, CheckedRollback,
    EquivalenceViolation,
})
