"""The standard sink bundle: one bus feeding a tracer and a registry.

:class:`Profiler` is what ``Database.explain_json`` and the CLI's
``.profile`` mode both use -- a single
object that owns an :class:`~repro.obs.bus.EventBus`, folds the event
stream into :class:`~repro.obs.metrics.MetricsRegistry` metrics and a
:class:`~repro.obs.tracer.Tracer` span tree, and renders the combined
``report()`` dict that ``explain_json`` embeds (schema documented in
``docs/observability.md``).
"""

from __future__ import annotations

from repro.obs import events as ev
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["Profiler", "fold_event"]


def fold_event(m: MetricsRegistry, event: ev.Event) -> None:
    """Fold one pipeline event into the registry's counters/histograms.

    The canonical event -> metric mapping, shared by :class:`Profiler`
    (per-request EXPLAIN profiles) and
    :class:`~repro.obs.telemetry.Telemetry` (server-lifetime
    aggregates feeding the CLI ``.top``), so both views agree on
    metric names.
    """
    if isinstance(event, ev.RuleAttempt):
        base = f"rewrite.rule.{event.rule}"
        m.inc(base + ".attempts")
        m.inc(base + (".hits" if event.matched else ".misses"))
        m.observe(base + ".seconds", event.duration)
    elif isinstance(event, ev.RuleFired):
        base = f"rewrite.rule.{event.rule}"
        m.inc(base + ".fired")
        m.observe(base + ".size_delta",
                  event.size_after - event.size_before)
    elif isinstance(event, ev.BlockEnd):
        base = f"rewrite.block.{event.block}"
        m.inc(base + ".applications", event.applications)
        m.inc(base + ".checks", event.checks)
        m.inc(base + ".budget_consumed", event.budget_consumed)
        m.observe(base + ".seconds", event.duration)
    elif isinstance(event, ev.PassEnd):
        m.inc("rewrite.passes")
    elif isinstance(event, ev.ConstraintCheck):
        m.inc("constraint.checks")
        if event.outcome:
            m.inc("constraint.holds")
    elif isinstance(event, ev.MethodCall):
        base = f"method.{event.name}/{event.arity}"
        m.inc(base + ".calls")
        if not event.success:
            m.inc(base + ".failures")
        m.observe(base + ".seconds", event.duration)
    elif isinstance(event, ev.EvalOp):
        m.inc(f"eval.op.{event.operator}")
        m.observe(f"eval.op.{event.operator}.rows", event.rows_out)
        m.observe("eval.op.seconds", event.duration)
    elif isinstance(event, ev.PhaseEnd):
        m.observe(f"phase.{event.phase}.seconds", event.duration)
    elif isinstance(event, ev.RuleFailed):
        m.inc("resilience.rule_failures")
        m.inc(f"rewrite.rule.{event.rule}.failures")
    elif isinstance(event, ev.RuleQuarantined):
        m.inc("resilience.quarantined")
    elif isinstance(event, ev.Degraded):
        m.inc("resilience.degraded")
        m.observe("resilience.degraded.elapsed", event.elapsed)
    elif isinstance(event, ev.DivergenceDetected):
        m.inc("resilience.divergence")
        m.inc(f"rewrite.block.{event.block}.divergence")
    elif isinstance(event, ev.CheckedRollback):
        m.inc("resilience.rollbacks")
        m.inc(f"rewrite.block.{event.block}.rollbacks")
    elif isinstance(event, ev.WalAppend):
        m.inc("durability.wal.appends")
        m.inc("durability.wal.bytes", event.bytes)
        m.observe("durability.wal.seconds", event.duration)
    elif isinstance(event, ev.WalReplay):
        m.inc("durability.wal.replayed", event.records)
        m.inc("durability.wal.truncated_bytes", event.bytes_truncated)
    elif isinstance(event, ev.CheckpointTaken):
        m.inc("durability.checkpoints")
        m.inc("durability.checkpoint.bytes", event.bytes)
        m.observe("durability.checkpoint.seconds", event.duration)
    elif isinstance(event, ev.RecoveryCompleted):
        m.inc("durability.recoveries")
        m.observe("durability.recovery.seconds", event.duration)
    elif isinstance(event, ev.FsckViolation):
        m.inc("durability.fsck.violations")


class Profiler:
    """Event-driven rule/block/method/eval telemetry collector."""

    def __init__(self, keep_misses: bool = False):
        self.bus = EventBus()
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(keep_misses=keep_misses)
        self.tracer.attach(self.bus)
        self.bus.subscribe(self._collect)

    # -- event folding --------------------------------------------------------
    def _collect(self, event: ev.Event) -> None:
        fold_event(self.metrics, event)

    # -- convenience ----------------------------------------------------------
    def absorb_eval_stats(self, stats) -> None:
        self.metrics.absorb_eval_stats(stats)

    def rule_table(self) -> dict[str, dict]:
        """Per-rule telemetry: attempts, hits, misses, fired, timing."""
        return self.metrics.group("rewrite.rule.")

    def block_table(self) -> dict[str, dict]:
        return self.metrics.group("rewrite.block.")

    def method_table(self) -> dict[str, dict]:
        return self.metrics.group("method.")

    def report(self) -> dict:
        """The ``profile`` object of the EXPLAIN JSON schema."""
        return {
            "rules": self.rule_table(),
            "blocks": self.block_table(),
            "methods": self.method_table(),
            "passes": self.metrics.value("rewrite.passes"),
            "constraints": {
                "checks": self.metrics.value("constraint.checks"),
                "holds": self.metrics.value("constraint.holds"),
            },
            "spans": self.tracer.to_json(),
            "metrics": self.metrics.snapshot(),
        }

    def reset(self) -> None:
        self.metrics.reset()
        self.tracer.reset()
