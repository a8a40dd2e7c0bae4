"""Resilience policy and the per-rewrite runtime state.

:class:`ResiliencePolicy` is the immutable configuration attached to a
:class:`~repro.rules.control.RewriteEngine`; one
:class:`ResilienceRuntime` is created per ``rewrite()`` call and holds
what governs it (the policy, the statement's ``QueryContext``, the
quarantine registry) and its mutable state (failure counts, the
deadline, the aggregated :class:`ResilienceReport`).

The module deliberately depends only on ``repro.terms`` and
``repro.obs`` so the rule engine can import it without touching the
execution engine; the checked-mode validator (which must evaluate
terms) lives in :mod:`repro.resilience.checked` and reaches the engine
as an opaque callable on the policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.obs.events import (CheckedRollback, Degraded, DivergenceDetected,
                              EquivalenceViolation, RuleFailed,
                              RuleQuarantined)
from repro.terms.printer import term_to_str
from repro.terms.term import Term, replace_at, term_size

__all__ = [
    "ResiliencePolicy", "ResilienceRuntime", "ResilienceReport",
    "RuleFailure", "DivergenceReport", "CheckedRollbackRecord",
    "TermHistory", "term_snippet",
]

_SNIPPET_LIMIT = 160


def term_snippet(term: Term, limit: int = _SNIPPET_LIMIT) -> str:
    """A bounded printer snapshot, safe to embed in messages/reports."""
    try:
        text = term_to_str(term)
    except Exception:  # printing must never be the second failure
        text = repr(term)
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


@dataclass(frozen=True)
class ResiliencePolicy:
    """What the engine is allowed to tolerate and how hard it may work.

    Attributes
    ----------
    deadline_ms:
        Wall-clock budget for one rewrite; checked cooperatively
        before each block and before each application search.  On
        expiry the engine stops and returns the best-so-far term with
        ``degraded=True``.  A governed statement's own deadline cuts
        the rewrite the same way, with or without a policy.
    max_applications:
        Global cap on rule applications across all blocks and passes
        (distinct from per-block limits); exhaustion degrades rather
        than raises.
    sandbox:
        Quarantine rules whose application raises instead of aborting
        the rewrite.
    failure_threshold:
        Failures of one rule within a rewrite before it is benched in
        the engine's quarantine registry (1 benches on first failure).
    detect_divergence:
        Track per-block term history and halt a block on oscillation
        or unbounded growth.
    growth_factor / growth_slack:
        A block halts with a ``growth`` report when the term exceeds
        ``initial_size * growth_factor + growth_slack`` nodes.
    validator:
        Checked mode: a callable ``(before, after) -> Optional[str]``
        run after every block that changed the term.  A non-None
        return is a divergence description and rolls the block back.
        See :func:`repro.resilience.make_checked_validator`.
    """

    deadline_ms: Optional[float] = None
    max_applications: Optional[int] = None
    sandbox: bool = True
    failure_threshold: int = 3
    detect_divergence: bool = True
    growth_factor: float = 8.0
    growth_slack: int = 64
    validator: Optional[Callable[[Term, Term], Optional[str]]] = None


# what a rewrite without a policy runs under: every protection off, so
# only its statement's deadline and cancel token bound it
_NO_POLICY = ResiliencePolicy(sandbox=False, detect_divergence=False)


@dataclass(frozen=True)
class RuleFailure:
    """One exception raised while applying a rule (sandboxed)."""

    block: str
    rule: str
    path: tuple
    error: str
    message: str

    def as_dict(self) -> dict:
        return {
            "block": self.block, "rule": self.rule,
            "path": list(self.path), "error": self.error,
            "message": self.message,
        }


@dataclass(frozen=True)
class DivergenceReport:
    """A halted block: an oscillation cycle or unbounded growth."""

    block: str
    kind: str  # "oscillation" | "growth"
    rules: tuple
    cycle_length: int
    detail: str

    def as_dict(self) -> dict:
        return {
            "block": self.block, "kind": self.kind,
            "rules": list(self.rules),
            "cycle_length": self.cycle_length,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheckedRollbackRecord:
    """A block rejected by the checked-mode validator."""

    block: str
    detail: str
    applications_discarded: int

    def as_dict(self) -> dict:
        return {
            "block": self.block, "detail": self.detail,
            "applications_discarded": self.applications_discarded,
        }


@dataclass
class ResilienceReport:
    """Everything the resilience layer did during one rewrite.

    Embedded (via :meth:`as_dict`) as the ``resilience`` section of the
    EXPLAIN JSON report, schema version 2.
    """

    degraded: bool = False
    degraded_reason: Optional[str] = None
    rule_failures: list[RuleFailure] = field(default_factory=list)
    quarantined: list[str] = field(default_factory=list)
    divergence: list[DivergenceReport] = field(default_factory=list)
    checked_validations: int = 0
    checked_errors: int = 0
    rollbacks: list[CheckedRollbackRecord] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "rule_failures": [f.as_dict() for f in self.rule_failures],
            "quarantined": list(self.quarantined),
            "divergence": [d.as_dict() for d in self.divergence],
            "checked": {
                "validations": self.checked_validations,
                "errors": self.checked_errors,
                "rollbacks": [r.as_dict() for r in self.rollbacks],
            },
        }


class TermHistory:
    """Hash-based term history of one block activation.

    Detects (a) oscillation -- the block revisits a term it already
    produced, e.g. the classic A -> B -> A commutation pair -- and (b)
    unbounded growth past ``initial * factor + slack`` nodes.  Hash
    buckets are verified by structural equality, so a hash collision
    cannot produce a false cycle.
    """

    def __init__(self, initial: Term, growth_factor: float = 8.0,
                 growth_slack: int = 64):
        self.initial_size = term_size(initial)
        self.limit = self.initial_size * growth_factor + growth_slack
        self._buckets: dict[int, list[int]] = {hash(initial): [0]}
        self._terms: list[Term] = [initial]
        self._rules: list[str] = []

    def record(self, term: Term, rule: str) -> Optional[tuple]:
        """Record one application; return ``(kind, rules, cycle_length,
        detail)`` when the block must halt, else None."""
        self._rules.append(rule)
        size = term_size(term)
        if size > self.limit:
            tail = _unique(self._rules[-8:])
            return (
                "growth", tuple(tail), 0,
                f"term grew to {size} nodes (started at "
                f"{self.initial_size}, limit {int(self.limit)})",
            )
        bucket = self._buckets.setdefault(hash(term), [])
        for index in bucket:
            if self._terms[index] == term:
                cycle_rules = _unique(self._rules[index:])
                length = len(self._rules) - index
                return (
                    "oscillation", tuple(cycle_rules), length,
                    f"term repeated after {length} application(s): "
                    f"{term_snippet(term)}",
                )
        bucket.append(len(self._terms))
        self._terms.append(term)
        return None


def _unique(names) -> list[str]:
    seen: set = set()
    out = []
    for name in names:
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


class ResilienceRuntime:
    """Mutable per-rewrite state: budgets, failure counts, the report.

    ``policy`` None is a rewrite asked only to obey its statement,
    whose :class:`QueryContext` is ``context`` (None when ungoverned);
    ``registry`` is the quarantine the engine skips and benches into.
    """

    def __init__(self, policy: Optional[ResiliencePolicy], registry,
                 context=None):
        self.policy = policy = policy or _NO_POLICY
        self.registry = registry
        self.context = context
        self.report = ResilienceReport()
        self._failures: dict[str, int] = {}
        self._started = perf_counter()
        self.deadline = (
            self._started + policy.deadline_ms / 1000.0
            if policy.deadline_ms is not None else None
        )

    # -- budgets -------------------------------------------------------------
    def exhausted(self, applications: int, bus=None) -> bool:
        """The poll before each block and each application search:
        raises :class:`~repro.errors.QueryCancelled` once the
        statement's cancel token is pulled; True (the report flagged
        degraded) once the rewrite's deadline, its statement's or the
        work budget ran out."""
        context = self.context
        if (context is not None and context.poll()) or (
                self.deadline is not None
                and perf_counter() >= self.deadline):
            reason = "deadline"
        elif self.policy.max_applications is not None and \
                applications >= self.policy.max_applications:
            reason = "max_applications"
        else:
            return False
        if not self.report.degraded:
            self.report.degraded = True
            self.report.degraded_reason = reason
            if bus:
                bus.emit(Degraded(reason, applications,
                                  perf_counter() - self._started))
        return True

    # -- sandboxing ----------------------------------------------------------
    def record_failure(self, block: str, rule: str, path: tuple,
                       error: BaseException, bus=None) -> None:
        count = self._failures.get(rule, 0) + 1
        self._failures[rule] = count
        self.report.rule_failures.append(RuleFailure(
            block, rule, path, type(error).__name__, str(error),
        ))
        if bus:
            bus.emit(RuleFailed(block, rule, path,
                                type(error).__name__, count))
        if count >= self.policy.failure_threshold:
            self._bench(block, rule, f"raised {count} time(s), last "
                        f"{type(error).__name__}: {error}", "sandbox",
                        count, bus)

    def _bench(self, block: str, rule: str, detail: str, source: str,
               failures: int, bus) -> None:
        if self.registry.note(block, rule, detail, source):
            self.report.quarantined.append(rule)
            if bus:
                bus.emit(RuleQuarantined(block, rule, failures))

    # -- divergence ----------------------------------------------------------
    def history_for(self, term: Term) -> Optional[TermHistory]:
        if not self.policy.detect_divergence:
            return None
        return TermHistory(term, self.policy.growth_factor,
                           self.policy.growth_slack)

    def record_divergence(self, block: str, verdict: tuple,
                          bus=None) -> DivergenceReport:
        kind, rules, length, detail = verdict
        report = DivergenceReport(block, kind, rules, length, detail)
        self.report.divergence.append(report)
        if bus:
            bus.emit(DivergenceDetected(block, kind, rules, length))
        return report

    # -- checked mode --------------------------------------------------------
    def validate_block(self, block: str, before: Term, after: Term,
                       applications: int, bus=None) -> bool:
        """Run the checked-mode validator; True means keep the block."""
        validator = self.policy.validator
        if validator is None:
            return True
        self.report.checked_validations += 1
        try:
            problem = validator(before, after)
        except Exception:  # a broken validator must fail open
            self.report.checked_errors += 1
            problem = None
        if problem is None:
            return True
        self.report.rollbacks.append(CheckedRollbackRecord(
            block, problem, applications,
        ))
        if bus:
            bus.emit(CheckedRollback(block, problem, applications))
        return False

    def blame_rollback(self, block: str, before: Term, entries,
                       bus=None) -> Optional[str]:
        """Localize a refuted block to one rule, and quarantine it.

        ``entries`` are the block's trace entries (each holds the
        rewritten subterm and its path).  Replaying them sequentially
        from ``before`` rebuilds every intermediate whole term; the
        first intermediate the validator refutes blames its rule,
        which is benched in the registry -- one confirmed wrong answer
        benches the rule for every later statement.

        Returns the blamed rule name, or None when localization was
        not possible (no trace collected, or only the combination of
        applications diverges).
        """
        validator = self.policy.validator
        blamed: Optional[str] = None
        detail = ""
        if validator is not None:
            current = before
            for entry in entries:
                try:
                    current = replace_at(current, entry.path,
                                         entry.after)
                    problem = validator(before, current)
                except Exception:  # blame must never be a second fault
                    continue
                if problem is not None:
                    blamed = entry.rule
                    detail = problem
                    break
        if bus:
            bus.emit(EquivalenceViolation(
                source="checked", block=block, rule=blamed or "",
                detail=detail or "block-level divergence "
                                 "(no single rule localized)",
            ))
        if blamed is not None:
            self._bench(block, blamed, detail, "checked", 1, bus)
        return blamed
