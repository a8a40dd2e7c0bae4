"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q`` from the
repository root (not in tier-1 ``testpaths``; the last three tests run whole
``--quick`` workloads and take about a minute together).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.perf import measure, metrics, trace, workloads
from benchmarks.perf.probes import Probes, reset_caches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# -- spans --------------------------------------------------------------------

def span(name, stmt, parent, start, end):
    return [name, stmt, parent, start, end]


def test_self_time_is_span_minus_direct_children():
    spans = [
        span("stmt", 0, -1, 0.0, 10.0),
        span("engine.query", 0, 0, 1.0, 9.0),
        span("esql.parse", 0, 1, 1.0, 2.0),
        span("core.optimize", 0, 1, 2.0, 6.0),
        span("rules.rewrite", 0, 3, 3.0, 5.0),
        span("engine.evaluate", 0, 1, 6.0, 8.5),
    ]
    assert trace.self_times(spans) == [2.0, 0.5, 1.0, 2.0, 2.0, 2.5]
    table = trace.stage_times([spans], 1)
    assert table["core.optimize"] == [2.0]
    # the self times of one statement add up to its root span
    assert sum(row[0] for row in table.values()) == pytest.approx(10.0)
    assert trace.inclusive_times([spans], 1, "core.optimize") == [4.0]


def test_stage_times_sum_same_named_spans_and_skip_unowned_ones():
    spans = [
        span("esql.parse", -1, -1, 0.0, 5.0),  # set-up: no statement
        span("stmt", 1, -1, 5.0, 9.0),
        span("server.guard_read", 1, 1, 5.0, 5.5),  # acquire
        span("server.guard_read", 1, 1, 8.0, 8.25),  # release
    ]
    table = trace.stage_times([spans], 2)
    assert table["server.guard_read"] == [0.0, 0.75]
    assert table["stmt"] == [0.0, 3.25]
    assert "esql.parse" not in table


def test_inclusive_time_does_not_count_a_nested_same_named_span_twice():
    spans = [
        span("stmt", 0, -1, 0.0, 9.0),
        span("lera.typecheck", 0, 0, 1.0, 7.0),
        span("lera.typecheck", 0, 1, 2.0, 4.0),
    ]
    assert trace.inclusive_times([spans], 1, "lera.typecheck") == [6.0]


def test_tracer_nests_counts_only_inside_statements_and_drains():
    tracer = trace.Tracer()
    tracer.count("ignored")  # no statement open
    root = tracer.begin("stmt", 3)
    child = tracer.begin("esql.parse")
    tracer.count("rules.rewrites")
    tracer.count("rules.checks", 5)
    tracer.end(child)
    tracer.end(root)
    tracer.count("ignored")
    threads, counts = tracer.drain()
    (spans,) = threads
    assert [s[trace.NAME] for s in spans] == ["stmt", "esql.parse"]
    assert spans[1][trace.PARENT] == 0 and spans[1][trace.STMT] == 3
    assert counts == {"rules.rewrites": 1, "rules.checks": 5}
    assert tracer.drain() == ([], {})


# -- statistics ---------------------------------------------------------------

def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert measure.percentile(values, 0.0) == 1.0
    assert measure.percentile(values, 0.5) == 2.5
    assert measure.percentile(values, 1.0) == 4.0
    assert measure.percentile(list(range(101)), 0.95) == 95.0
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_per_statement_medians_and_speed_factor():
    passes = [[3.0, 9.0, 5.0], [2.0, 10.0, 6.0], [4.0, 8.0, 5.5]]
    assert measure.statement_medians(passes) == [3.0, 9.0, 5.5]
    assert measure.statement_best(passes) == [2.0, 8.0, 5.0]
    k = measure.REFERENCE_KERNEL_S
    assert measure.speed_factor([2 * k, 9 * k, 3 * k]) == pytest.approx(3.0)


def test_a_statement_is_calibrated_by_the_kernel_samples_around_it():
    k = measure.REFERENCE_KERNEL_S
    state = measure._Pass([None] * 3, 3, None, {}, every=1)
    # the box slows down threefold after the second statement
    state.samples = [k, k, k, 3 * k, 3 * k, 3 * k, 3 * k]
    state.marks = [1, 2, 5]
    assert state.factors() == pytest.approx([1.0, 1.0, 3.0])
    outcome = measure.PassResult([0.001, 0.002, 0.009], state.factors(),
                                 wall=0.012, speed=2.0)
    assert outcome.calibrated() == pytest.approx([0.001, 0.002, 0.003])


def test_spread_is_quartile_distance_over_median():
    from benchmarks.perf.run import spread
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert spread([5.0]) == 0.0


# -- generators ---------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    a = workloads.build(name, 7, 0.1)
    b = workloads.build(name, 7, 0.1)
    c = workloads.build(name, 8, 0.1)
    assert a.statements == b.statements and a.tables == b.tables
    assert a.final == b.final
    assert [s.text for s in a.statements] != [s.text for s in c.statements]
    assert len(a.statements) == len(c.statements)
    assert {s.kind for s in a.statements} <= {"read", "write", "sys"}


def test_full_size_workloads_meet_the_sample_floor():
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 1)
        # p95 needs at least ten samples beyond it
        assert len(workload.statements) >= 200, name
        assert len(workload.why) <= 200 and "\n" not in workload.why
    texts = {s.text for s in
             workloads.build("point_filter", 1).statements}
    assert len(texts) > 512  # more than the fingerprint memo holds
    served = workloads.build("served_mixed", 1)
    reads = {s.text for s in served.statements if s.kind == "read"}
    assert len(reads) <= 48


def test_strata_cover_the_range_evenly():
    import random
    values = workloads.strata(random.Random(1), 10, 0, 100)
    assert sorted(v // 10 for v in values) == list(range(10))


# -- the contract file --------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_matches_the_metric_tables():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    end_to_end, per_layer = metrics.benchmark_json_metrics()
    assert contract["end_to_end"] == end_to_end
    assert contract["per_layer"] == per_layer
    assert contract["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in contract["workloads"]] == \
        list(workloads.WORKLOADS)
    for entry in contract["workloads"]:
        assert entry["why"] == workloads.build(entry["name"], 1, 0.1).why
    names = [m["name"] for m in end_to_end + per_layer] \
        + [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in end_to_end + per_layer)
    assert all(0 < m["bound"] <= 0.25 for m in end_to_end)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in end_to_end)
    assert len(per_layer) <= 128 and 1 <= contract["run_seconds"] <= 60


# -- probes -------------------------------------------------------------------

def test_a_probe_whose_entry_point_is_gone_is_reported_not_raised(
        monkeypatch):
    import repro.core.rewriter as rewriter
    monkeypatch.delattr(rewriter.QueryRewriter, "rewrite")
    probes = Probes(trace.Tracer())
    assert probes.missing == ["rules.rewrite"]
    with probes.installed():
        pass  # the other probes still install and come off cleanly


def test_probes_restore_what_they_patched():
    import repro.engine.database as database
    import repro.esql.parser as parser
    before = (parser.parse_script_with_sources,
              database.parse_script_with_sources,
              database.Database.__dict__["query"])
    probes = Probes(trace.Tracer())
    assert probes.missing == []
    with probes.installed():
        # modules that imported the function by value are rebound too
        assert database.parse_script_with_sources is not before[1]
        assert database.parse_script_with_sources \
            is parser.parse_script_with_sources
    assert (parser.parse_script_with_sources,
            database.parse_script_with_sources,
            database.Database.__dict__["query"]) == before


def test_reset_caches_knows_the_fingerprint_memo():
    from repro.esql import fingerprint
    fingerprint.fingerprint_source("SELECT 1 FROM T")
    assert reset_caches() == ["esql.fingerprint memo"]
    assert not fingerprint._memo


# -- whole workloads, --quick -------------------------------------------------

def run_quick(name: str, traced: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "5", "--seconds", "1", "--trace", str(traced),
         "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_quick_emits_every_named_metric_with_a_unit(name):
    end_to_end, per_layer = metrics.benchmark_json_metrics()
    for traced, wanted in ((0, end_to_end), (1, per_layer)):
        line = run_quick(name, traced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True  # wrong_share == 0, none lost
        assert line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        for spec in wanted:
            cell = line["metrics"][spec["name"]]
            assert cell["unit"] == spec["unit"]
            assert isinstance(cell["value"], (int, float))
        if not traced:
            assert all(cell["value"] > 0
                       for cell in line["metrics"].values())


COUNTED = ("rewrite_heavy", "served_mixed", "dml_durable")


@pytest.mark.parametrize("name", COUNTED)
def test_count_metrics_repeat_exactly(name, tmp_path):
    workload = workloads.build(name, 5, 0.1)
    runner = measure.Runner(workload, str(tmp_path))
    tracer = trace.Tracer()
    try:
        runner.build()
        runner.warm_up()  # as in the traced run: one-time set-up is over
        probes = Probes(tracer)
        first = measure.count_metrics(
            measure.count_pass(runner, tracer, probes))
        second = measure.count_metrics(
            measure.count_pass(runner, tracer, probes))
    finally:
        runner.close()
    assert first == second
    assert first["rules.checks_per_stmt"] > 0
    reads = [s.text for s in workload.statements if s.kind == "read"]
    assert measure.plan_work_ratio(workload, reads[:20]) == \
        measure.plan_work_ratio(workload, reads[:20])


def test_wal_bytes_repeat_exactly_and_nothing_acknowledged_is_lost(
        tmp_path):
    workload = workloads.build("dml_durable", 5, 0.1)
    runner = measure.Runner(workload, str(tmp_path))
    try:
        passes = [runner.run_pass() for __ in range(2)]
    finally:
        runner.close()
    values = measure.end_to_end(workload, passes, 0.0, 0)
    assert values["acked_lost"] == 0 and values["wrong_share"] == 0
    assert passes[0].durable["log_bytes"] == passes[1].durable["log_bytes"]
    assert values["wal_bytes_per_stmt"] > 0
    assert passes[0].durable["replayed"] > 0
