"""Unit tests for the statement registry and the chaos injector."""

from repro.lifecycle import ChaosInjector, QueryContext, StatementRegistry
from repro.obs.bus import EventBus
from repro.obs.metrics import MetricsRegistry


class TestRegistry:
    def test_begin_mints_sequential_ids(self):
        registry = StatementRegistry()
        first = registry.begin(source="SELECT 1")
        second = registry.begin()
        assert first.query_id == "q1"
        assert second.query_id == "q2"
        assert len(registry) == 2

    def test_finish_moves_to_done_ring(self):
        registry = StatementRegistry()
        ctx = registry.begin()
        registry.finish(ctx, "done")
        assert len(registry) == 0
        assert registry.get(ctx.query_id) is None
        recent = registry.recent()
        assert [c.query_id for c in recent] == [ctx.query_id]
        assert recent[0].phase == "done"
        assert recent[0].finished is not None

    def test_done_ring_is_bounded(self):
        registry = StatementRegistry(done_capacity=3)
        for _ in range(5):
            registry.finish(registry.begin())
        assert [c.query_id for c in registry.recent()] == \
            ["q3", "q4", "q5"]

    def test_kill_pulls_the_token(self):
        registry = StatementRegistry()
        ctx = registry.begin()
        assert registry.kill(ctx.query_id) is True
        assert ctx.cancelled is True
        # idempotent: a second kill reports nothing to do
        assert registry.kill(ctx.query_id) is False

    def test_kill_unknown_id_is_not_an_error(self):
        assert StatementRegistry().kill("q999") is False

    def test_cancel_all(self):
        registry = StatementRegistry()
        contexts = [registry.begin() for _ in range(3)]
        registry.finish(contexts[1])
        cancelled = registry.cancel_all("keyboard-interrupt")
        assert sorted(cancelled) == ["q1", "q3"]
        assert contexts[0].cancel_reason == "keyboard-interrupt"

    def test_cancel_emits_event_and_metric(self):
        registry = StatementRegistry()
        bus, metrics = EventBus(), MetricsRegistry()
        seen = []
        bus.subscribe(seen.append)
        registry.obs = bus
        registry.metrics = metrics
        ctx = registry.begin(session="s1")
        registry.kill(ctx.query_id, reason="kill")
        assert [type(e).__name__ for e in seen] == ["StatementCancelled"]
        assert seen[0].session == "s1"
        counters = metrics.snapshot()["counters"]
        assert counters["lifecycle.cancels"] == 1
        assert counters["lifecycle.cancels.kill"] == 1

    def test_adopts_externally_minted_context(self):
        registry = StatementRegistry()
        ctx = QueryContext(query_id="placeholder")
        registered = registry.begin(context=ctx)
        assert registered is ctx
        assert ctx.query_id == "q1"  # the registry owns id minting


class TestChaosInjector:
    def test_deterministic_schedule(self):
        rolls = lambda: [  # noqa: E731
            ChaosInjector(seed=42, cancel_rate=0.5)._random.random()
            for _ in range(3)
        ]
        assert rolls() == rolls()

    def test_cancel_injection(self):
        injector = ChaosInjector(seed=1, cancel_rate=1.0)
        ctx = QueryContext(chaos=injector)
        ctx.cancel = lambda reason: setattr(ctx, "_pulled", reason)
        injector.maybe_inject(ctx)
        assert injector.injected == "cancel"
        assert ctx._pulled == "chaos"

    def test_at_most_one_fault(self):
        injector = ChaosInjector(seed=1, cancel_rate=1.0)
        ctx = QueryContext()
        ctx.cancel("chaos")  # simulate the first injection's effect
        injector.injected = "cancel"
        before = injector._checks
        injector.maybe_inject(ctx)
        assert injector._checks == before  # short-circuited

    def test_min_checks_delays_faults(self):
        injector = ChaosInjector(seed=1, cancel_rate=1.0, min_checks=5)
        ctx = QueryContext()
        for _ in range(5):
            injector.maybe_inject(ctx)
        assert injector.injected is None
        injector.maybe_inject(ctx)
        assert injector.injected == "cancel"

    def test_fork_is_independent(self):
        parent = ChaosInjector(seed=3, cancel_rate=0.5)
        a, b = parent.fork(1), parent.fork(2)
        assert a.seed != b.seed
        assert a.cancel_rate == parent.cancel_rate

    def test_budget_injection_honours_degrade(self):
        from repro.lifecycle import Truncation
        injector = ChaosInjector(seed=1, budget_rate=1.0)
        ctx = QueryContext(degrade=True, chaos=injector)
        try:
            ctx.check()
        except Truncation:
            pass
        assert injector.injected == "budget"
        assert ctx.truncated is True
