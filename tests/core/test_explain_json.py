"""The machine-readable EXPLAIN report: structure, schema validation,
and what a consumer of an executed report can count on."""

import json

import pytest

from repro import Database
from repro.core.explain import (EXPLAIN_SCHEMA_VERSION, explain_json,
                                validate_explain)


@pytest.fixture
def db():
    d = Database()
    d.execute("""
    TABLE SALE (Shop : NUMERIC, Amount : NUMERIC);
    CREATE VIEW BIG (Shop, Amount) AS
      SELECT Shop, Amount FROM SALE WHERE Amount > 10;
    CREATE VIEW HUGE (Shop, Amount) AS
      SELECT Shop, Amount FROM BIG WHERE Amount > 20
    """)
    d.execute("INSERT INTO SALE VALUES (1, 5), (1, 15), (2, 25), (2, 40)")
    return d


QUERY = "SELECT Amount FROM HUGE WHERE Shop = 1"


class TestStructure:
    def test_validates_against_schema(self, db):
        report = db.explain_json(QUERY)
        assert validate_explain(report) == []
        assert report["schema_version"] == EXPLAIN_SCHEMA_VERSION

    def test_json_serialisable(self, db):
        json.dumps(db.explain_json(QUERY, execute=True))

    def test_plans_shrink_under_merging(self, db):
        report = db.explain_json(QUERY)
        assert report["plans"]["after"]["nodes"] < \
            report["plans"]["before"]["nodes"]
        assert "SEARCH" in report["plans"]["after"]["text"]

    def test_rewrite_section_consistent(self, db):
        report = db.explain_json(QUERY)
        rewrite = report["rewrite"]
        assert rewrite["applications"] == len(rewrite["trace"])
        assert rewrite["checks"] >= rewrite["applications"]
        assert rewrite["summary"]["merge"]["search_merge"] == 2

    def test_saturating_rewrite_telemetry(self, db):
        """The acceptance shape: per-rule attempts >= hits, block
        budget consumption reported, span durations non-negative."""
        report = db.explain_json(QUERY)
        profile = report["profile"]
        assert profile is not None
        for name, row in profile["rules"].items():
            assert row.get("attempts", 0) >= row.get("hits", 0), name
        assert profile["blocks"]["merge"]["budget_consumed"] >= 2
        def spans(nodes):
            for node in nodes:
                yield node
                yield from spans(node["children"])
        all_spans = list(spans(profile["spans"]))
        assert all_spans
        assert all(s["duration"] >= 0.0 for s in all_spans)

    def test_execute_embeds_eval_counters(self, db):
        report = db.explain_json(QUERY, execute=True)
        assert report["eval"]["tuples_scanned"] > 0
        counters = report["profile"]["metrics"]["counters"]
        assert counters["eval.tuples_scanned"] == \
            report["eval"]["tuples_scanned"]
        assert any(k.startswith("eval.op.") for k in counters)

    def test_without_execute_eval_is_null(self, db):
        report = db.explain_json(QUERY)
        assert report["eval"] is None
        assert validate_explain(report) == []

    def test_rewrite_off(self, db):
        report = db.explain_json(QUERY, rewrite=False)
        assert report["rewrite"]["applications"] == 0
        assert report["rewrite"]["trace"] == []
        assert validate_explain(report) == []


class TestValidator:
    def test_flags_missing_sections(self):
        assert validate_explain({}) != []

    def test_flags_negative_duration(self, db):
        report = db.explain_json(QUERY)
        report["profile"]["spans"][0]["duration"] = -1.0
        assert any("duration" in p for p in validate_explain(report))

    def test_flags_attempts_below_hits(self, db):
        report = db.explain_json(QUERY)
        report["profile"]["rules"]["search_merge"]["attempts"] = 0
        assert any("attempts < hits" in p
                   for p in validate_explain(report))

    def test_flags_negative_eval_counter(self, db):
        report = db.explain_json(QUERY, execute=True)
        report["eval"]["tuples_scanned"] = -3
        assert any("eval.tuples_scanned" in p
                   for p in validate_explain(report))


class TestExecutedReportIngestion:
    def test_what_a_consumer_reads(self, db):
        """Valid against the schema, the merging visible per rule and
        per block, the evaluator's counters attached."""
        report = db.explain_json(QUERY, execute=True)
        assert validate_explain(report) == []
        profile = report["profile"]
        assert profile["rules"]["search_merge"]["fired"] == 2
        assert profile["blocks"]["merge"]["applications"] == 2
        assert report["eval"]["tuples_scanned"] == 8


class TestExplainText:
    def test_no_rules_fired_message(self, db):
        text = db.explain("SELECT Shop FROM SALE")
        assert "(no rules fired)" in text
        assert "0 rule application(s)" not in text
        assert not text.endswith("\n")

    def test_applications_path_unchanged(self, db):
        text = db.explain(QUERY)
        assert "rule application(s)" in text
        assert "(no rules fired)" not in text

    def test_profile_section(self, db):
        text = db.explain(QUERY, profile=True)
        assert "== profile ==" in text
        assert "per-rule" in text
        assert "phase:optimize" in text

    def test_no_profile_section_by_default(self, db):
        assert "== profile ==" not in db.explain(QUERY)


class TestTraceSection:
    def test_v4_reports_carry_a_trace(self, db):
        report = db.explain_json(QUERY)
        trace = report["trace"]
        assert len(trace["trace_id"]) == 32
        assert len(trace["span_id"]) == 16
        assert trace["parent_id"] is None       # minted outside a request
        assert all(value >= 0 for value in trace["stages"].values())

    def test_stage_timings_recovered_from_phase_histograms(self, db):
        stages = db.explain_json(QUERY)["trace"]["stages"]
        assert "rewrite_ms" in stages
        assert stages["rewrite_ms"] >= 0.0
        # executing also surfaces the evaluator stage
        executed = db.explain_json(QUERY, execute=True)
        assert "evaluate_ms" in executed["trace"]["stages"]

    def test_reuses_the_ambient_request_context(self, db):
        from repro.obs.telemetry import TraceContext, use_trace
        context = TraceContext.new().child()
        with use_trace(context):
            trace = db.explain_json(QUERY)["trace"]
        assert trace["trace_id"] == context.trace_id
        assert trace["span_id"] == context.span_id
        assert trace["parent_id"] == context.parent_id

    def test_server_reports_record_queue_wait(self, db):
        from repro.server import Server
        server = Server(db)
        report = server.explain_json(QUERY)
        assert validate_explain(report) == []
        stages = report["trace"]["stages"]
        assert stages["queue_wait_ms"] == \
            report["server"]["queue_wait_ms"]
        server.close()

    def test_validator_rejects_malformed_traces(self, db):
        report = db.explain_json(QUERY)
        report["trace"]["trace_id"] = "not-hex"
        report["trace"]["span_id"] = "f00"
        report["trace"]["parent_id"] = "zz"
        report["trace"]["stages"] = {"rewrite_ms": -1.0}
        problems = validate_explain(report)
        assert "trace.trace_id: not 32 hex chars" in problems
        assert "trace.span_id: not 16 hex chars" in problems
        assert "trace.parent_id: not null or 16 hex chars" in problems
        assert ("trace.stages.rewrite_ms: not a non-negative number"
                in problems)

    def test_validator_requires_the_section(self, db):
        report = db.explain_json(QUERY)
        del report["trace"]
        assert any("trace" in problem
                   for problem in validate_explain(report))
