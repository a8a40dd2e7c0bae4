"""Fault tolerance for the rewriter: sandboxing, budgets, divergence
detection and checked-mode validation.

The paper's extensibility story (section 4) puts user-supplied rules
and external methods inside the optimizer's hot loop, and its only
termination story is the per-block limit.  This package makes the
rewriter survive bad extensions:

* **rule sandboxing** -- an exception raised while matching, checking
  constraints, running methods or building the right-hand side
  quarantines the offending rule (after a configurable failure
  threshold) instead of aborting the whole rewrite;
* **deadlines and work budgets** -- ``ResiliencePolicy(deadline_ms=...,
  max_applications=...)`` is enforced cooperatively in the block loop,
  beside the deadline and cancel token of the statement the rewrite
  belongs to, and returns the best term found so far with
  ``degraded=True`` rather than raising;
* **divergence detection** -- hash-based term-history tracking spots
  oscillation cycles (A -> B -> A) and unbounded growth inside a block
  and halts the block with a report naming the offending rules;
* **checked mode** -- an opt-in differential validator replays the
  pre- and post-block terms against a small sampled database and rolls
  back a block whose results diverge.

Everything is opt-in through :class:`ResiliencePolicy`, which the
statement path builds in one place (``Database._rewrite_policy``); an
engine without a policy pays nothing (the same null-sink discipline as
``repro.obs``).  Rules found crashing or unsound are benched in the one
:class:`QuarantineRegistry` and fire nowhere until lifted.  Outcomes
surface as ``repro.obs`` events and in the
``resilience`` section of ``explain_json`` (schema version 2); see
``docs/robustness.md``.
"""

from repro.resilience.policy import (CheckedRollbackRecord, DivergenceReport,
                                     ResiliencePolicy, ResilienceReport,
                                     ResilienceRuntime, RuleFailure,
                                     TermHistory)
from repro.resilience.quarantine import QuarantineEntry, QuarantineRegistry

__all__ = [
    "ResiliencePolicy", "ResilienceRuntime", "ResilienceReport",
    "RuleFailure", "DivergenceReport", "CheckedRollbackRecord",
    "TermHistory", "make_checked_validator",
    "QuarantineEntry", "QuarantineRegistry",
]


def make_checked_validator(catalog, sample_rows: int = 16):
    """Build a checked-mode validator over a sample of ``catalog``.

    Imported lazily so :mod:`repro.rules.control` can depend on the
    policy objects without pulling in the execution engine.
    """
    from repro.resilience.checked import CheckedValidator
    return CheckedValidator(catalog, sample_rows=sample_rows)
