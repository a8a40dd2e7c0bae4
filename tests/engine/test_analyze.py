"""EXPLAIN ANALYZE: the collector, the analyze-mode query path, the
schema-v8 report section and the sys.plan_nodes ring."""

import json

import pytest

from repro import Database
from repro.core.explain import (EXPLAIN_SCHEMA_VERSION,
                                validate_explain)
from repro.engine.analyze import AnalyzeCollector


@pytest.fixture
def db():
    d = Database()
    d.execute("""
    TABLE EDGE (Src : NUMERIC, Dst : NUMERIC);
    CREATE VIEW PATH (Src, Dst) AS
    ( SELECT Src, Dst FROM EDGE
      UNION
      SELECT E.Src, P.Dst FROM EDGE E, PATH P WHERE E.Dst = P.Src )
    """)
    d.execute("INSERT INTO EDGE VALUES (1, 2), (2, 3), (3, 4), (4, 5)")
    return d


JOIN_FIXPOINT = "SELECT Dst FROM PATH WHERE Src = 1"


class TestCollector:
    def test_self_time_subtracts_children(self):
        collector = AnalyzeCollector()
        parent, child = object(), object()
        collector.enter(parent)
        collector.enter(child)
        collector.exit(child, rows=3, elapsed=0.2, nbytes=24)
        collector.exit(parent, rows=1, elapsed=0.5, nbytes=8)
        total = collector.total_self_ms()
        assert abs(total - 500.0) < 1e-6  # 0.3 self + 0.2 child
        assert collector.observed == 2

    def test_self_time_clamped_non_negative(self):
        collector = AnalyzeCollector()
        term = object()
        collector.enter(term)
        # float rounding can make elapsed < accumulated child time;
        # the clamp keeps self_s at zero rather than negative
        collector._stack[-1] = 0.5
        collector.exit(term, rows=0, elapsed=0.5 - 1e-12, nbytes=0)
        node = next(iter(collector._nodes.values()))
        assert node.self_s >= 0.0

    def test_clear_resets(self):
        collector = AnalyzeCollector()
        collector.enter("x")
        collector.exit("x", 1, 0.1, 8)
        collector.clear()
        assert collector.observed == 0
        assert collector.snapshot() == []


class TestAnalyzeMode:
    def test_results_identical_with_and_without(self, db):
        plain = db.query(JOIN_FIXPOINT).rows
        collector = AnalyzeCollector()
        analyzed = db.query(JOIN_FIXPOINT, analyze=collector).rows
        assert sorted(analyzed) == sorted(plain)
        assert collector.observed > 0

    def test_fixpoint_iterations_merge_into_loops(self, db):
        collector = AnalyzeCollector()
        db.query(JOIN_FIXPOINT, analyze=collector)
        nodes = collector.snapshot()
        # semi-naive rebuilds the delta body each iteration; equal
        # printed forms merge into one node with loops > 1
        assert any(n["loops"] > 1 for n in nodes)
        by_hash = {}
        for node in nodes:
            assert node["hash"] not in by_hash  # merged means unique
            by_hash[node["hash"]] = node

    def test_plan_log_ring_records(self, db):
        assert db.plan_log.recorded == 0
        db.query(JOIN_FIXPOINT, analyze=True)
        assert db.plan_log.recorded == 1
        rows = db.plan_log.rows()
        assert rows
        # (plan, fingerprint, trace_id, node, operator, hash, depth,
        #  rows, loops, self_ms, total_ms, bytes)
        for row in rows:
            assert row[0] == 1
            assert len(row[1]) == 12
            assert row[7] >= 0 and row[8] >= 1

    def test_analyze_off_is_null_object(self, db):
        db.query(JOIN_FIXPOINT)
        assert db.plan_log.recorded == 0


class TestWorkloadCounters:
    def test_a_mixed_workload_is_counted_exactly(self, db):
        """Eighteen raw statements over an 11-edge chain collapse onto
        two read templates (constants and casing vary); the analyzed
        fixpoint merges its iterations into ten operators."""
        from repro.esql.fingerprint import fingerprint_source
        db.execute("INSERT INTO EDGE VALUES " + ", ".join(
            f"({i}, {i + 1})" for i in range(5, 12)))
        for i in range(8):
            db.query(f"SELECT Dst FROM EDGE WHERE Src = {i}")
        for i in range(6):
            db.query(f"select dst  from edge where src = {i + 20}")
        for i in range(4):
            db.query(f"SELECT Dst FROM PATH WHERE Src = {i + 1}")
        calls = {row[0]: row[2] for row in db.workload.rows()}
        edge, path = (fingerprint_source(text).fingerprint for text in (
            "SELECT Dst FROM EDGE WHERE Src = 0", JOIN_FIXPOINT))
        assert (calls[edge], calls[path], db.workload.tracked) == (14, 4, 6)

        collector = AnalyzeCollector()
        assert sorted(db.query(JOIN_FIXPOINT, analyze=collector).rows) \
            == [(n,) for n in range(2, 13)]
        nodes = collector.snapshot()
        assert (len(nodes), max(n["loops"] for n in nodes)) == (10, 24)
        assert validate_explain(
            db.explain_json(JOIN_FIXPOINT, analyze=True)) == []
        assert db.plan_log.recorded == 2


class TestExplainReport:
    def test_v8_round_trip_analyzed(self, db):
        report = db.explain_json(JOIN_FIXPOINT, analyze=True)
        assert report["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert validate_explain(report) == []
        assert report["analyze"]["enabled"] is True
        nodes = report["analyze"]["nodes"]
        assert nodes
        operators = {n["operator"] for n in nodes}
        assert "SCAN" in operators or "FIX" in operators
        json.dumps(report)

    def test_v8_round_trip_not_analyzed(self, db):
        report = db.explain_json(JOIN_FIXPOINT, execute=True)
        assert validate_explain(report) == []
        assert report["analyze"] == {"enabled": False, "nodes": []}

    def test_trace_carries_fingerprint(self, db):
        report = db.explain_json(JOIN_FIXPOINT)
        assert len(report["trace"]["fingerprint"]) == 12

    def test_self_times_sum_to_eval_stage(self, db):
        report = db.explain_json(JOIN_FIXPOINT, analyze=True)
        total_self = sum(
            n["self_ms"] for n in report["analyze"]["nodes"]
        )
        stage = report["trace"]["stages"].get("eval_ms")
        if stage:  # profile-derived; tolerance covers clock overhead
            assert total_self <= stage * 1.5 + 5.0

    def test_validator_rejects_bad_analyze_section(self, db):
        report = db.explain_json(JOIN_FIXPOINT, analyze=True)
        report["analyze"]["nodes"][0]["rows"] = -1
        assert any("rows" in p for p in validate_explain(report))
        report = db.explain_json(JOIN_FIXPOINT)
        report["analyze"]["nodes"] = [{"operator": "X"}]
        assert any("analyze" in p for p in validate_explain(report))
