"""JSONL sink (rotation, sampling, trace stamping) and OTLP export."""

import json
import os
import re

import pytest

from repro.obs import events as ev
from repro.obs.bus import EventBus
from repro.obs.export import JsonlSink, OtlpSpanExporter, spans_to_otlp
from repro.obs.telemetry import TraceContext, use_trace
from repro.obs.tracer import Tracer


def _fired(rule="R"):
    return ev.RuleFired(block="B", rule=rule, path=(), size_before=3,
                        size_after=2, duration=0.001)


def _attempt():
    return ev.RuleAttempt(block="B", rule="R", path=(), matched=False,
                          duration=0.0)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class TestJsonlSink:
    def test_rejects_nonpositive_rotation_threshold(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(str(tmp_path / "log.jsonl"), max_bytes=0)

    def test_records_carry_event_and_timestamp(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        sink = JsonlSink(path, clock=lambda: 123.5)
        sink(_fired())
        sink.close()
        (record,) = _read(path)
        assert record["event"] == "RuleFired"
        assert record["rule"] == "R"
        assert record["ts"] == 123.5
        assert "trace_id" not in record     # emitted outside any request

    def test_records_are_trace_stamped_at_delivery(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        sink = JsonlSink(path)
        root = TraceContext.new()
        child = root.child()
        with use_trace(child):
            sink(_fired())
        sink.close()
        (record,) = _read(path)
        assert record["trace_id"] == root.trace_id
        assert record["span_id"] == child.span_id
        assert record["parent_id"] == root.span_id

    def test_rotation_shifts_generations(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        sink = JsonlSink(path, max_bytes=150, keep=2)
        for __ in range(12):
            sink(_fired())
        sink.close()
        assert os.path.exists(path)
        assert os.path.exists(path + ".1")
        assert os.path.exists(path + ".2")
        assert not os.path.exists(path + ".3")   # oldest dropped, not kept
        # every surviving generation is intact JSONL
        for suffix in ("", ".1", ".2"):
            for record in _read(path + suffix):
                assert record["event"] == "RuleFired"

    def test_sampling_keeps_the_first_of_each_window(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        sink = JsonlSink(path, sample={"RuleAttempt": 5})
        for __ in range(10):
            sink(_attempt())
        sink(_fired())                      # unlisted kinds never dropped
        sink.close()
        records = _read(path)
        kinds = [record["event"] for record in records]
        assert kinds.count("RuleAttempt") == 2    # windows 0-4 and 5-9
        assert kinds.count("RuleFired") == 1
        assert sink.stats() == {"written": 3, "dropped": 8}

    def test_attach_and_detach_on_a_bus(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        sink = JsonlSink(path)
        bus = EventBus()
        assert not bus
        sink.attach(bus)
        assert bus
        bus.emit(_fired())
        sink.detach()
        assert not bus
        sink.close()
        assert sink.stats()["written"] == 1


class TestSpansToOtlp:
    def _tree(self):
        tracer = Tracer()
        tracer.on_event(ev.PhaseStart(phase="rewrite"))
        tracer.on_event(ev.BlockStart(block="simplify", pass_index=0,
                                      limit=None, count="many"))
        tracer.on_event(ev.BlockEnd(block="simplify", pass_index=0,
                                    applications=1, checks=2,
                                    budget_consumed=3, duration=0.001))
        tracer.on_event(ev.PhaseEnd(phase="rewrite", duration=0.002))
        return tracer.span_tree()

    def test_renders_a_parented_span_tree(self):
        trace = TraceContext.new()
        document = spans_to_otlp(self._tree(), trace=trace,
                                 epoch_anchor=0.0)
        (resource,) = document["resourceSpans"]
        assert resource["resource"]["attributes"] == [{
            "key": "service.name", "value": {"stringValue": "repro"},
        }]
        (scope,) = resource["scopeSpans"]
        phase, block = scope["spans"]
        assert phase["name"] == "phase:rewrite"
        assert block["name"] == "block:simplify"
        for span in (phase, block):
            assert span["traceId"] == trace.trace_id
            assert span["kind"] == 1
            assert span["startTimeUnixNano"].isdigit()
            assert int(span["endTimeUnixNano"]) >= int(
                span["startTimeUnixNano"])
        assert phase["parentSpanId"] == trace.span_id
        assert block["parentSpanId"] == phase["spanId"]

    def test_attributes_become_string_value_pairs(self):
        document = spans_to_otlp(self._tree(), epoch_anchor=0.0)
        spans = document["resourceSpans"][0]["scopeSpans"][0]["spans"]
        block = spans[1]
        attrs = {pair["key"]: pair["value"]["stringValue"]
                 for pair in block["attributes"]}
        assert attrs["applications"] == "1"

    def test_mints_a_trace_when_none_given(self):
        document = spans_to_otlp(self._tree(), epoch_anchor=0.0)
        spans = document["resourceSpans"][0]["scopeSpans"][0]["spans"]
        trace_ids = {span["traceId"] for span in spans}
        assert len(trace_ids) == 1
        assert len(trace_ids.pop()) == 32


class TestOtlpSpanExporter:
    def _emit_phase(self, bus, phase):
        bus.emit(ev.PhaseStart(phase=phase))
        bus.emit(ev.PhaseEnd(phase=phase, duration=0.001))

    def test_batches_per_trace_and_drains_on_export(self):
        exporter = OtlpSpanExporter()
        bus = EventBus()
        exporter.attach(bus)
        first, second = TraceContext.new(), TraceContext.new()
        with use_trace(first):
            self._emit_phase(bus, "rewrite")
        with use_trace(second):
            self._emit_phase(bus, "evaluate")
        self._emit_phase(bus, "typecheck")       # untraced traffic

        document = exporter.export()
        spans = document["resourceSpans"][0]["scopeSpans"][0]["spans"]
        by_trace = {span["traceId"]: span["name"] for span in spans}
        assert by_trace[first.trace_id] == "phase:rewrite"
        assert by_trace[second.trace_id] == "phase:evaluate"
        assert len(spans) == 3                   # untraced kept, own trace

        # export drains: a second call starts from empty
        assert exporter.export() == {"resourceSpans": []}

    def test_detach_stops_collection(self):
        exporter = OtlpSpanExporter()
        bus = EventBus()
        exporter.attach(bus)
        exporter.detach()
        assert not bus
        assert exporter.export() == {"resourceSpans": []}


class TestServedStack:
    """Every export surface of one served database at once (JSONL
    sink, Prometheus text, OTLP spans, slow-query log): well-formed
    line by line, not just present."""

    # text exposition 0.0.4: ``name{labels} value`` or ``name value``
    METRIC_LINE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
        r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
        r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
        r" [0-9eE+.infa-]+$")
    TYPE_LINE = re.compile(
        r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|summary|histogram)$")

    def test_every_line_of_every_surface_is_well_formed(self, tmp_path):
        from repro import Database
        from repro.obs.telemetry import Telemetry
        from repro.server import Server

        log_path = str(tmp_path / "events.jsonl")
        telemetry = Telemetry(log_path=log_path, otlp=True)
        server = Server(Database(), telemetry=telemetry, slow_query_ms=0.0)
        client = server.client()
        client.execute("TABLE T (A : NUMERIC, B : NUMERIC)")
        client.execute("INSERT INTO T VALUES (1, 2), (3, 4), (5, 6)")
        for __ in range(5):
            client.query("SELECT A FROM T WHERE B = 4")

        text = server.metrics_text()
        assert "server_requests_read 5" in text
        for line in filter(None, text.splitlines()):
            if line.startswith("# TYPE"):
                assert self.TYPE_LINE.match(line), line
            elif not line.startswith("#"):
                assert self.METRIC_LINE.match(line), line
        assert len(server.slow_queries()) == 7
        server.close()  # flushes and closes the sink

        records = _read(log_path)
        assert all(isinstance(r, dict) and "event" in r and "ts" in r
                   for r in records)
        assert any("trace_id" in r for r in records)
        assert telemetry.export_spans()["resourceSpans"]
