"""The statement path hands its bus to the optimizer and the evaluator
only when some subscriber wants their events (``EventBus.wants``).

A served read whose only listener is a client's circuit breaker --
filtered to ``RequestCompleted`` / ``RequestFailed`` -- builds no rule
or operator event at all; a mounted telemetry hub still gets the whole
stream."""

import importlib

import pytest

from repro.obs.bus import EventBus
from repro.obs.events import (ENGINE_EVENTS, EvalOp, PhaseStart,
                              RequestCompleted, RequestFailed,
                              RuleAttempt, RuleFired)
from repro.obs.telemetry import Telemetry
from repro.server import Server
from repro.server.retry import CircuitBreaker

from tests.resilience.chaos import SALE_QUERY, sale_db


class TestWants:
    def test_no_subscriber_wants_anything(self):
        assert not EventBus().wants(ENGINE_EVENTS)

    def test_an_unfiltered_subscriber_wants_everything(self):
        bus = EventBus()
        bus.subscribe(lambda event: None)
        assert bus.wants(ENGINE_EVENTS)

    def test_a_subscriber_filtered_to_other_kinds_wants_none(self):
        bus = EventBus()
        bus.subscribe(lambda event: None,
                      kinds=(RequestCompleted, RequestFailed))
        assert bus  # still a bus with a subscriber ...
        assert not bus.wants(ENGINE_EVENTS)  # ... that wants none

    def test_one_wanted_kind_is_enough(self):
        bus = EventBus()
        bus.subscribe(lambda event: None, kinds=(RequestCompleted, EvalOp))
        assert bus.wants(ENGINE_EVENTS)


class CountingBreaker(CircuitBreaker):
    def __init__(self):
        super().__init__()
        self.successes = 0

    def record_success(self, failure_class=None):
        self.successes += 1
        super().record_success(failure_class)


@pytest.fixture
def built(monkeypatch):
    """Event class name -> instances the rewrite engine and the
    evaluator constructed."""
    counts: dict = {}
    control = importlib.import_module("repro.rules.control")
    evaluate = importlib.import_module("repro.engine.evaluate")
    for module, cls in ((control, RuleAttempt), (control, RuleFired),
                        (evaluate, EvalOp)):
        def counting(*args, __cls=cls, **kwargs):
            counts[__cls.__name__] = counts.get(__cls.__name__, 0) + 1
            return __cls(*args, **kwargs)
        monkeypatch.setattr(module, cls.__name__, counting)
    return counts


def test_a_breaker_alone_gets_no_engine_events_built(built):
    server = Server(sale_db())
    breaker = CountingBreaker()
    client = server.client(breaker=breaker)
    try:
        assert sorted(client.query(SALE_QUERY).rows) == [(15,), (25,),
                                                          (40,)]
        assert server.bus and not server.bus.wants(ENGINE_EVENTS)
        assert built == {}
        assert breaker.successes == 1  # the completion still counts
    finally:
        client.close()
        server.close()


def test_a_mounted_hub_still_gets_the_full_stream(built):
    server = Server(sale_db(), telemetry=Telemetry())
    seen = []
    server.bus.subscribe(seen.append)
    client = server.client(breaker=CountingBreaker())
    try:
        client.query(SALE_QUERY)  # planned: rewrite and evaluate events
        kinds = {type(event) for event in seen}
        assert {RuleAttempt, RuleFired, EvalOp, PhaseStart,
                RequestCompleted} <= kinds
        assert built["RuleAttempt"] > 0 and built["EvalOp"] > 0
        del seen[:]
        client.query(SALE_QUERY)  # a plan-cache hit: evaluation only
        kinds = {type(event) for event in seen}
        assert {EvalOp, PhaseStart, RequestCompleted} <= kinds
        assert RuleAttempt not in kinds
        assert ("evaluate" in {event.phase for event in seen
                               if isinstance(event, PhaseStart)})
    finally:
        client.close()
        server.close()
