"""The deterministic fuzz loop: generate, check, shrink, report.

``fuzz(n, seed)`` drives the whole subsystem: ``n`` independent cases
are derived from one seed (case ``i`` uses ``Random(seed * 1_000_003 +
i)``, so any single case can be regenerated without replaying the run),
each is checked by the :class:`~repro.qa.oracle.DifferentialOracle`,
and every confirmed divergence is delta-debugged down to a minimal
:class:`~repro.qa.schema_gen.Case` ready for the regression corpus.

The loop is observable: with an :class:`~repro.obs.bus.EventBus`
attached it emits one :class:`~repro.obs.events.EquivalenceViolation`
per finding and a :class:`~repro.obs.events.FuzzCompleted` at the end;
with a :class:`~repro.obs.metrics.MetricsRegistry` it maintains the
``qa.*`` counters (``qa.cases``, ``qa.skipped``, ``qa.violations``).

Cases whose *baseline* (unrewritten) execution fails are counted as
``skipped``, not as findings -- the generator occasionally steps on a
legitimately rejected query, and that is the generator's problem, not
the rewriter's.  A case that runs unrewritten but *fails* rewritten is
very much a finding (mode ``rewrite-error``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Optional

from repro.qa.oracle import DifferentialOracle, Divergence
from repro.qa.query_gen import random_case
from repro.qa.schema_gen import Case

__all__ = ["FuzzFinding", "FuzzReport", "fuzz", "case_seed"]

# a large odd multiplier keeps per-case seeds distinct across both the
# case index and nearby base seeds
_SEED_STRIDE = 1_000_003


def case_seed(seed: int, index: int) -> int:
    """The derived seed of case ``index`` in run ``seed``."""
    return seed * _SEED_STRIDE + index


@dataclass(frozen=True)
class FuzzFinding:
    """One confirmed, minimized non-equivalence."""

    index: int
    seed: int               # the derived per-case seed
    divergence: Divergence
    case: Case              # as generated
    shrunk: Case            # after delta debugging

    def describe(self) -> str:
        lines = [
            f"case #{self.index} (seed {self.seed}) "
            f"[{self.divergence.mode}]",
            f"  {self.divergence.detail}",
            f"  query:  {self.case.query}",
        ]
        if self.shrunk.query != self.case.query:
            lines.append(f"  shrunk: {self.shrunk.query}")
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """The outcome of one ``fuzz`` run."""

    seed: int
    cases: int
    executed: int = 0
    skipped: int = 0
    duration: float = 0.0
    findings: list = field(default_factory=list)

    @property
    def violations(self) -> int:
        return len(self.findings)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        return (f"fuzz seed={self.seed}: {self.executed}/{self.cases} "
                f"case(s) checked, {self.skipped} skipped, "
                f"{self.violations} violation(s) "
                f"in {self.duration:.2f}s")


def _blame(divergence: Divergence) -> str:
    """The block a divergence localizes to, when it does."""
    if divergence.mode.startswith("block:"):
        return divergence.mode.split(":", 1)[1]
    return ""


def fuzz(n: int, seed: int = 0,
         oracle: Optional[DifferentialOracle] = None,
         tier_every: int = 0,
         max_tables: int = 3, max_rows: int = 10,
         shrink: bool = True,
         obs=None, metrics=None,
         on_finding: Optional[Callable[[FuzzFinding], None]] = None,
         ) -> FuzzReport:
    """Run ``n`` deterministic differential cases from ``seed``.

    Parameters
    ----------
    oracle:
        The differential oracle; defaults to a fresh
        :class:`DifferentialOracle` (anti-pattern block on, block
        subsets on, tier off).
    tier_every:
        Every ``tier_every``-th case additionally replays through a
        pool worker (0 = never).  Sampled because a worker boot is a
        subprocess spawn -- too slow to pay per case.
    shrink:
        Delta-debug each finding down to a minimal case.
    obs / metrics:
        Optional event bus and metrics registry (see module docstring).
    on_finding:
        Called with each :class:`FuzzFinding` as it is confirmed (the
        CLI streams findings instead of waiting for the report).
    """
    from repro.qa.shrink import shrink_case

    if oracle is None:
        oracle = DifferentialOracle()
    tier_oracle = None
    if tier_every:
        tier_oracle = DifferentialOracle(
            antipattern=oracle.antipattern,
            check_subsets=oracle.check_subsets,
            check_engine=oracle.check_engine,
            check_tier=True,
        )

    report = FuzzReport(seed=seed, cases=n)
    started = time.perf_counter()
    for index in range(n):
        derived = case_seed(seed, index)
        rng = Random(derived)
        case, spec = random_case(rng, max_tables=max_tables,
                                 max_rows=max_rows)
        checker = oracle
        if tier_oracle is not None and index % tier_every == 0:
            checker = tier_oracle
        try:
            divergence = checker.check(case)
        except Exception:
            # the baseline itself rejected the case: a generator miss,
            # not a rewriter bug
            report.skipped += 1
            if metrics is not None:
                metrics.inc("qa.skipped")
            continue
        report.executed += 1
        if metrics is not None:
            metrics.inc("qa.cases")
        if divergence is None:
            continue

        shrunk = case
        if shrink:
            shrunk = shrink_case(case, checker, spec=spec,
                                 mode=divergence.mode)
            # re-derive the divergence for the minimized case so the
            # corpus note describes what is actually committed
            final = checker.check(shrunk)
            if final is not None:
                divergence = final
        finding = FuzzFinding(
            index=index, seed=derived, divergence=divergence,
            case=case, shrunk=shrunk,
        )
        report.findings.append(finding)
        if metrics is not None:
            metrics.inc("qa.violations")
        if obs:
            from repro.obs.events import EquivalenceViolation
            obs.emit(EquivalenceViolation(
                source="fuzz", block=_blame(divergence), rule="",
                detail=f"{divergence.mode}: {divergence.detail}",
            ))
        if on_finding is not None:
            on_finding(finding)

    report.duration = time.perf_counter() - started
    if obs:
        from repro.obs.events import FuzzCompleted
        obs.emit(FuzzCompleted(
            seed=seed, cases=report.executed,
            violations=report.violations, duration=report.duration,
        ))
    return report
