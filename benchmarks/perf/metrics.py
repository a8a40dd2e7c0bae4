"""The benchmark's metric tables: names, units, directions, bounds.

``END_TO_END`` are what a user of the system sees, measured with
tracing off through ``Database`` / ``Server`` / ``ServingClient``
only; ``bound`` is the share of the baseline by which the metric may
worsen before it counts as a regression -- three times the run-to-run
spread measured on the box that defined the benchmark, which is why
the timing bounds sit at 25% (0.0 = exact).  ``PER_LAYER`` are single
layers' numbers from the traced run; README.md says which end-to-end
metric each should move and on which workload, written down before
anything was measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Metric", "END_TO_END", "PER_LAYER", "BLOCKS", "GATED",
           "UNGATED_END_TO_END", "benchmark_json_metrics"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"  # or "higher"
    bound: Optional[float] = None  # end-to-end only


END_TO_END = (
    Metric("stmt_p50_ms", "ms", bound=0.25),
    Metric("stmt_p95_ms", "ms", bound=0.25),
    Metric("read_p50_ms", "ms", bound=0.25),
    # dml_durable and pooled_read only (one client, and writes)
    Metric("write_p50_ms", "ms", bound=0.25),
    Metric("stmts_per_s", "1/s", "higher", bound=0.25),
    Metric("failed_share", "ratio", bound=0.0),
    Metric("wrong_share", "ratio", bound=0.0),
    Metric("setup_s", "s", bound=0.25),
    Metric("peak_rss_mb", "MB", bound=0.10),
    # dml_durable only
    Metric("recovery_s", "s", bound=0.25),
    Metric("wal_bytes_per_stmt", "bytes", bound=0.0),
    Metric("acked_lost", "count", bound=0.0),
)

# BENCHMARK.json's ``end_to_end`` must be reported by every workload
# and never read 0, so it lists only these; the shares and
# ``acked_lost`` surface there as ``failed`` / ``correct``, and the
# metrics only some workloads have ride in its ``per_layer`` list
# (reading 0 where the workload has no such statement).
GATED = ("stmt_p50_ms", "stmt_p95_ms", "read_p50_ms", "stmts_per_s",
         "setup_s", "peak_rss_mb")
UNGATED_END_TO_END = ("write_p50_ms", "recovery_s", "wal_bytes_per_stmt")

BLOCKS = ("canonicalize", "merge", "push", "fixpoint", "merge_again",
          "semantic", "simplify", "prune")

PER_LAYER = (
    Metric("esql.parse_ms", "ms"),
    Metric("esql.fingerprint_ms", "ms"),
    Metric("esql.translate_ms", "ms"),
    Metric("esql.dml_apply_ms", "ms"),
    Metric("esql.py_calls_per_stmt", "count"),
    Metric("lera.typecheck_ms", "ms"),
    Metric("lera.plan_nodes", "count"),
    Metric("lera.py_calls_per_stmt", "count"),
    Metric("core.optimize_ms", "ms"),
    Metric("core.optimize_self_ms", "ms"),
    Metric("rules.rewrite_ms", "ms"),
    Metric("rules.rewrite_share", "ratio"),
    Metric("rules.noop_share", "ratio"),
    Metric("rules.applications_per_stmt", "count"),
    Metric("rules.checks_per_stmt", "count"),
    *(Metric(f"rules.block.{block}.applications", "count")
      for block in BLOCKS),
    Metric("rules.py_calls_per_stmt", "count"),
    Metric("terms.py_calls_per_stmt", "count"),
    Metric("rules.plan_work_ratio", "ratio", "higher"),
    Metric("engine.evaluate_ms", "ms"),
    Metric("engine.eval_share", "ratio"),
    Metric("engine.tuples_scanned_per_stmt", "count"),
    Metric("engine.join_pairs_per_stmt", "count"),
    Metric("engine.qual_evaluations_per_stmt", "count"),
    Metric("engine.fix_iterations_per_stmt", "count"),
    Metric("engine.rows_examined_per_row_out", "ratio"),
    Metric("engine.py_calls_per_stmt", "count"),
    Metric("engine.unattributed_ms", "ms"),
    Metric("engine.unattributed_share", "ratio"),
    Metric("durability.log_statement_ms", "ms"),
    Metric("durability.durable_ratio", "ratio"),
    Metric("durability.checkpoint_s", "s"),
    Metric("durability.snapshot_bytes", "bytes"),
    Metric("durability.replayed_stmts", "count"),
    Metric("server.self_ms", "ms"),
    Metric("server.served_ratio", "ratio"),
    Metric("server.client_ratio", "ratio"),
    Metric("server.admit_ms", "ms"),
    Metric("server.guard_read_ms", "ms"),
    Metric("server.guard_write_ms", "ms"),
    Metric("server.shed", "count"),
    Metric("server.retries", "count"),
    Metric("lifecycle.governed_ratio", "ratio"),
    Metric("resilience.checked_ratio", "ratio"),
    Metric("obs.telemetry_ratio", "ratio"),
    Metric("obs.analyze_ratio", "ratio"),
    Metric("obs.sys_read_ms", "ms"),
    Metric("obs.explain_json_ms", "ms"),
    Metric("pool.boot_s", "s"),
    Metric("pool.submit_ms", "ms"),
    Metric("pool.pooled_ratio", "ratio"),
    Metric("pool.fallbacks", "count"),
    Metric("pool.retries", "count"),
    Metric("pool.restarts", "count"),
    Metric("trace.overhead_ratio", "ratio"),
)


def benchmark_json_metrics() -> tuple:
    """``(end_to_end, per_layer)`` as BENCHMARK.json lists them."""
    by_name = {m.name: m for m in END_TO_END}
    end_to_end = [
        {"name": n, "unit": by_name[n].unit, "better": by_name[n].better,
         "bound": by_name[n].bound} for n in GATED
    ]
    per_layer = [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER + tuple(by_name[n] for n in UNGATED_END_TO_END)
    ]
    return end_to_end, per_layer
