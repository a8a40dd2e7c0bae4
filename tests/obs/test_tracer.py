"""Tracer: direct spans, event-stream folding, and JSON export."""

import json

from repro.obs import events as ev
from repro.obs.bus import EventBus
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.5
        return self.now


class TestDirectSpans:
    def test_nesting_and_duration(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (outer,) = tracer.span_tree()
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.duration >= outer.children[0].duration > 0

    def test_durations_non_negative_with_real_clock(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        for root in tracer.span_tree():
            for span in root.walk():
                assert span.duration >= 0.0

    def test_mark_is_zero_duration(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            tracer.mark("note", detail=7)
        (outer,) = tracer.span_tree()
        (mark,) = outer.children
        assert mark.duration == 0.0
        assert mark.attrs["detail"] == 7

    def test_pop_on_empty_stack_is_safe(self):
        tracer = Tracer()
        assert tracer.pop() is None

    def test_json_round_trip(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer", kind="phase"):
            pass
        data = json.loads(tracer.dumps())
        assert data[0]["name"] == "outer"
        assert data[0]["kind"] == "phase"
        assert data[0]["children"] == []

    def test_reset_clears_everything(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.span_tree() == []


class TestEventFolding:
    def emit_rewrite(self, bus):
        bus.emit(ev.PhaseStart("rewrite"))
        bus.emit(ev.BlockStart("merge", 0, 10, "applications"))
        bus.emit(ev.MethodCall("SUBSTITUTE", 3, True, 0.001))
        bus.emit(ev.ConstraintCheck("ISA", True))
        bus.emit(ev.RuleAttempt("merge", "search_merge", (), True, 0.002))
        bus.emit(ev.RuleFired("merge", "search_merge", (), 30, 20, 0.002))
        bus.emit(ev.BlockEnd("merge", 0, 1, 3, 1, 0.01))
        bus.emit(ev.PassEnd(0, True, 0.02))
        bus.emit(ev.PhaseEnd("rewrite", 0.03))

    def test_hierarchy_phase_block_rule_method(self):
        tracer = Tracer(clock=FakeClock())
        bus = EventBus()
        tracer.attach(bus)
        self.emit_rewrite(bus)
        (phase,) = tracer.span_tree()
        assert (phase.kind, phase.name) == ("phase", "rewrite")
        block = phase.children[0]
        assert (block.kind, block.name) == ("block", "merge")
        assert block.attrs["budget_consumed"] == 1
        (rule,) = [c for c in block.children if c.kind == "rule"]
        assert rule.name == "search_merge"
        assert rule.attrs["size_before"] == 30
        kinds = {c.kind for c in rule.children}
        assert kinds == {"method", "constraint"}

    def test_pass_marks_recorded(self):
        tracer = Tracer(clock=FakeClock())
        bus = EventBus()
        tracer.attach(bus)
        self.emit_rewrite(bus)
        (phase,) = tracer.span_tree()
        passes = [c for c in phase.children if c.kind == "pass"]
        assert len(passes) == 1
        assert passes[0].attrs["changed"] is True

    def test_misses_dropped_by_default(self):
        tracer = Tracer(clock=FakeClock())
        bus = EventBus()
        tracer.attach(bus)
        bus.emit(ev.BlockStart("simplify", 0, None, "applications"))
        bus.emit(ev.RuleAttempt("simplify", "and_true", (), False, 0.001))
        bus.emit(ev.BlockEnd("simplify", 0, 0, 1, 0, 0.01))
        (block,) = tracer.span_tree()
        assert block.children == []

    def test_pending_methods_cleared_on_miss(self):
        """A failed attempt's method calls must not leak into the next
        fired rule's children."""
        tracer = Tracer(clock=FakeClock())
        bus = EventBus()
        tracer.attach(bus)
        bus.emit(ev.BlockStart("merge", 0, None, "applications"))
        bus.emit(ev.MethodCall("ADORNMENT", 4, False, 0.001))
        bus.emit(ev.RuleAttempt("merge", "fix_reduce", (), False, 0.002))
        bus.emit(ev.RuleFired("merge", "search_merge", (), 9, 5, 0.001))
        bus.emit(ev.BlockEnd("merge", 0, 1, 2, 1, 0.01))
        (block,) = tracer.span_tree()
        (rule,) = block.children
        assert rule.name == "search_merge"
        assert rule.children == []

    def test_eval_ops_become_leaves(self):
        tracer = Tracer(clock=FakeClock())
        bus = EventBus()
        tracer.attach(bus)
        bus.emit(ev.EvalOp("SEARCH", 12, 0.004))
        (leaf,) = tracer.span_tree()
        assert (leaf.kind, leaf.name) == ("eval", "SEARCH")
        assert leaf.attrs["rows_out"] == 12
