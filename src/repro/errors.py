"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class TypeSystemError(ReproError):
    """Raised for invalid type definitions or failed type lookups."""


class TypeCheckError(ReproError):
    """Raised when an expression cannot be typed against a schema."""


class ValueError_(ReproError):
    """Raised for malformed runtime values (bad field, bad element type)."""


class FunctionError(ReproError):
    """Raised when an ADT function is applied to unsupported arguments."""


class UnknownFunctionError(FunctionError):
    """Raised when a function name is not present in the registry."""


class TermError(ReproError):
    """Raised for structurally invalid terms."""


class ParseError(ReproError):
    """Raised by the rule-language and ESQL parsers.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    line, column:
        1-based position of the offending token, when known.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)


class NestingTooDeep(ReproError):
    """A statement nests deeper than the library admits.

    The parser, the translator and every pass over a plan recurse once
    per level of nesting, so depth is bounded where it enters -- the
    expression parser and view expansion -- and fails here, typed,
    instead of as the interpreter's ``RecursionError`` somewhere
    downstream.

    Attributes
    ----------
    resource:
        What nested too deep: ``"expression"`` or ``"view"``.
    limit:
        The bound that was crossed (a module constant of
        :mod:`repro.esql.parser` / :mod:`repro.esql.translate`).
    line, column:
        Position of the token that crossed it, for an expression.
    """

    def __init__(self, message: str, resource: str = "expression",
                 limit: int = 0, line: int | None = None,
                 column: int | None = None):
        self.resource = resource
        self.limit = limit
        self.line = line
        self.column = column
        super().__init__(message)


class RuleError(ReproError):
    """Raised for malformed rewrite rules (unbound rhs variables, ...)."""


class MethodError(ReproError):
    """Raised when a rule method call fails or is unknown."""


class ConstraintError(ReproError):
    """Raised when a rule constraint cannot be evaluated."""


class SchemaError(ReproError):
    """Raised when a LERA term has no consistent output schema."""


class CatalogError(ReproError):
    """Raised for unknown relations/views/types or duplicate definitions."""


class EvaluationError(ReproError):
    """Raised when the execution engine cannot evaluate a LERA term."""


class TranslationError(ReproError):
    """Raised when an ESQL statement cannot be translated to LERA."""


class RewriteError(ReproError):
    """Raised by the rewrite engine for internal inconsistencies."""


class DurabilityError(ReproError):
    """Raised by the durability layer (bad WAL/snapshot files, misuse of
    the checkpoint API); recoverable corruption is repaired silently and
    reported through :class:`repro.durability.RecoveryReport` instead."""


class ServerError(ReproError):
    """Base class of the concurrent serving layer's errors.

    Every subclass carries its discriminating data as attributes so the
    serving layer can serialise them uniformly (see
    :func:`error_payload` and the ``server`` section of explain JSON
    schema version 3).
    """


class ServerOverloaded(ServerError):
    """The admission controller shed this request.

    Attributes
    ----------
    retry_after:
        Hint, in seconds, for when a retry is likely to be admitted
        (consumed by :class:`repro.server.RetryPolicy`).
    request_class:
        The admission class that was full (``"read"`` or ``"write"``).
    queue_depth:
        How many requests were already waiting when this one was shed.
    """

    def __init__(self, message: str, retry_after: float,
                 request_class: str = "read", queue_depth: int = 0):
        self.retry_after = float(retry_after)
        self.request_class = request_class
        self.queue_depth = queue_depth
        super().__init__(message)


class CircuitOpen(ServerError):
    """A client-side circuit breaker is open for this failure class."""

    def __init__(self, message: str, failure_class: str,
                 retry_after: float):
        self.failure_class = failure_class
        self.retry_after = float(retry_after)
        super().__init__(message)


class RetryBudgetExceeded(ServerError):
    """A :class:`repro.server.RetryPolicy` gave up; ``last_error`` is
    the error of the final attempt."""

    def __init__(self, message: str, attempts: int,
                 last_error: Exception | None = None):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(message)


class SessionExpired(ServerError):
    """The referenced session does not exist (never opened, closed, or
    reaped after its idle timeout)."""

    def __init__(self, message: str, session_id: str):
        self.session_id = session_id
        super().__init__(message)


class WorkerCrashed(ServerError):
    """A pool worker died (crash, kill -9, or missed heartbeats) while
    executing the statement.

    Raised by :class:`repro.pool.Supervisor` after its retry policy is
    exhausted: side-effect-free reads are retried transparently on a
    fresh worker up to the configured budget before this surfaces;
    statements with side effects never retry (the worker's undo log
    rolled its copy back, and replaying DML against an unknown
    intermediate state would risk double-apply).

    Attributes
    ----------
    worker_id:
        The ``sys.workers`` id of the worker that died (``w<N>``).
    query_id:
        The governed statement's ``sys.queries`` id, when known.
    attempts:
        Dispatch attempts made for the statement, this one included.
    exit_code / signal:
        How the process died: a nonzero exit status, or the signal
        number that killed it (9 for the chaos suite's kill -9).
    """

    def __init__(self, message: str, worker_id: str = "",
                 query_id: str = "", attempts: int = 1,
                 exit_code: int | None = None,
                 signal: int | None = None):
        self.worker_id = worker_id
        self.query_id = query_id
        self.attempts = attempts
        self.exit_code = exit_code
        self.signal = signal
        super().__init__(message)


class PoolUnavailable(ServerError):
    """The worker pool cannot take this statement right now: every
    worker is busy (``reason="saturated"``), the crash-loop circuit
    breaker is open (``reason="circuit-open"``), or the pool is
    stopped.  The server catches this and degrades to in-process
    execution -- callers only ever see it when driving a
    :class:`repro.pool.Supervisor` directly.

    Attributes
    ----------
    reason:
        ``"saturated"``, ``"circuit-open"`` or ``"stopped"``.
    retry_after:
        Hint, in seconds, for when the pool may accept again.
    """

    def __init__(self, message: str, reason: str = "saturated",
                 retry_after: float = 0.05):
        self.reason = reason
        self.retry_after = float(retry_after)
        super().__init__(message)


class LifecycleError(ReproError):
    """Base class of the query-lifecycle governance errors.

    Raised *cooperatively*: the evaluator polls its
    :class:`~repro.lifecycle.QueryContext` at scan-batch, join-probe
    and fixpoint-iteration granularity, so these surface at a check
    site, never mid-row.  Statement atomicity is unaffected -- a
    cancelled DML statement rolls back via its undo log exactly like
    any other failing statement.
    """


class QueryCancelled(LifecycleError):
    """The statement's cancel token fired (``Server.kill``, CLI
    ``.kill``, Ctrl-C, or a pooled statement's dispatcher enforcing
    its deadline on the worker).

    Attributes
    ----------
    query_id:
        The statement's id in ``sys.queries``.
    reason:
        Who pulled the token (``"kill"``, ``"keyboard-interrupt"``,
        ``"deadline"``, ``"chaos"``, ...).
    phase:
        The lifecycle phase the statement was in when the token was
        observed (``"optimize"``, ``"evaluate"``, ...).
    elapsed_ms:
        Wall-clock milliseconds from statement start to observation.
    """

    def __init__(self, message: str, query_id: str = "",
                 reason: str = "kill", phase: str = "",
                 elapsed_ms: float = 0.0):
        self.query_id = query_id
        self.reason = reason
        self.phase = phase
        self.elapsed_ms = float(elapsed_ms)
        super().__init__(message)


class BudgetExceeded(LifecycleError):
    """The statement ran past one of its budgets and degrade mode was
    off (with degrade on, the evaluator truncates instead of raising).

    Attributes
    ----------
    query_id:
        The statement's id in ``sys.queries``.
    resource:
        Which budget tripped: ``"deadline"``, ``"rows"`` or
        ``"memory"``.
    limit / consumed:
        The budget and the consumption that crossed it
        (milliseconds, rows or bytes, matching ``resource``).
    """

    def __init__(self, message: str, query_id: str = "",
                 resource: str = "deadline",
                 limit: float = 0.0, consumed: float = 0.0):
        self.query_id = query_id
        self.resource = resource
        self.limit = limit
        self.consumed = consumed
        super().__init__(message)


# Attributes lifted into an error's wire payload when present.  One
# table for every typed error keeps the explain-JSON ``server.errors``
# entries consistent across subsystems (ServerOverloaded's retry_after,
# a deadline's elapsed/budget, a quarantined rule's name, ...).
_PAYLOAD_ATTRS = (
    "retry_after", "request_class", "queue_depth", "failure_class",
    "attempts", "session_id", "elapsed_ms", "rule", "block", "line",
    "column", "query_id", "reason", "phase", "resource", "limit",
    "consumed", "worker_id", "exit_code", "signal",
)


def error_payload(error: BaseException) -> dict:
    """Serialise any library error into a flat, JSON-ready dict.

    Shape: ``{"error": <class name>, "message": <str(error)>}`` plus
    whichever of the known typed attributes the error carries.
    """
    payload = {"error": type(error).__name__, "message": str(error)}
    for attr in _PAYLOAD_ATTRS:
        value = getattr(error, attr, None)
        if value is not None:
            payload[attr] = value
    return payload
