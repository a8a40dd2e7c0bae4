"""End-to-end governance through Database: budgets, degrade mode, the
unified statement budget, explain's lifecycle section, sys.queries."""

import pytest

from repro import Database
from repro.core.explain import validate_explain
from repro.engine.options import StatementOptions
from repro.engine.stats import EvalStats
from repro.errors import BudgetExceeded, QueryCancelled, RuleError
from repro.lifecycle import ChaosInjector, QueryContext, use_context

from tests.resilience.chaos import (SALE_QUERY, AlwaysRaisingRule,
                                    StallingRule, sale_db)


@pytest.fixture
def db():
    database = Database()
    database.execute("TABLE T (A : NUMERIC, B : NUMERIC)")
    values = ", ".join(f"({i}, {i * 2})" for i in range(60))
    database.execute(f"INSERT INTO T VALUES {values}")
    return database


class TestUngovernedFastPath:
    def test_no_context_minted_without_knobs(self, db):
        db.query("SELECT A FROM T")
        assert len(db.lifecycle) == 0
        assert db.lifecycle.recent() == []

    def test_explain_lifecycle_is_null(self, db):
        report = db.explain_json("SELECT A FROM T")
        assert report["lifecycle"] is None
        assert validate_explain(report) == []


class TestRowBudget:
    def test_database_default_trips(self):
        db = Database()
        db.execute("TABLE T (A : NUMERIC)")
        db.execute("INSERT INTO T VALUES " +
                   ", ".join(f"({i})" for i in range(30)))
        db.row_budget = 10  # the database-wide default, set post-seed
        with pytest.raises(BudgetExceeded) as err:
            db.query("SELECT A FROM T")
        assert err.value.resource == "rows"
        assert db.lifecycle.recent()[-1].phase == "failed"

    def test_per_call_override(self, db):
        with pytest.raises(BudgetExceeded):
            db.query("SELECT A FROM T", row_budget=5)
        # and the same query unbudgeted still works
        assert len(db.query("SELECT A FROM T").rows) == 60

    def test_degrade_returns_flagged_prefix(self, db):
        stats = EvalStats()
        result = db.query("SELECT A FROM T", row_budget=20,
                          degrade=True, stats=stats)
        assert 0 < len(result.rows) < 60
        assert stats.truncated == 1
        assert db.lifecycle.recent()[-1].phase == "truncated"

    def test_complete_result_not_flagged(self, db):
        stats = EvalStats()
        result = db.query("SELECT A FROM T", row_budget=100_000,
                          degrade=True, stats=stats)
        assert len(result.rows) == 60
        assert stats.truncated == 0


class TestMemoryBudget:
    def test_memory_budget_trips(self, db):
        with pytest.raises(BudgetExceeded) as err:
            db.query("SELECT A, B FROM T", memory_budget=64)
        assert err.value.resource == "memory"

    def test_memory_zero_balanced_after_trip(self, db):
        with pytest.raises(BudgetExceeded):
            db.query("SELECT A, B FROM T", memory_budget=64)
        done = db.lifecycle.recent()[-1]
        assert done.memory.current == 0
        assert done.memory.peak > 0


class TestGovernanceWorkCounters:
    """What a governed statement is charged, exactly (500-row table;
    in wall-clock: ``lifecycle.governed_ratio`` of ``benchmarks/perf``)."""

    @pytest.fixture
    def big(self):
        database = Database()
        database.execute("TABLE T (A : NUMERIC, B : NUMERIC)")
        database.execute("INSERT INTO T VALUES " + ", ".join(
            f"({i}, {(i * 13) % 100})" for i in range(500)))
        return database

    def test_a_governed_scan_is_charged_its_rows_and_bytes(self, big):
        big.query("SELECT A, B FROM T WHERE B < 50",
                  row_budget=100_000, memory_budget=1 << 30)
        done = big.lifecycle.recent()[-1]
        # 500 scanned + 250 answered; every reserved byte released
        assert (done.rows_charged, done.memory.peak,
                done.memory.current) == (750, 48000, 0)

    def test_where_the_row_budget_stops_a_scan(self, big):
        truncated = big.query("SELECT A, B FROM T", row_budget=100,
                              degrade=True)
        assert len(truncated.rows) == 63  # the prefix in hand at the trip
        with pytest.raises(BudgetExceeded) as err:
            big.query("SELECT A, B FROM T", row_budget=100)
        assert err.value.consumed == 500  # the scan batch that crossed it

    def test_cancels_surface_at_the_next_check(self, big):
        big.chaos = ChaosInjector(seed=11, cancel_rate=1.0, min_checks=3)
        with pytest.raises(QueryCancelled):
            big.query("SELECT A, B FROM T")
        assert big.lifecycle.recent()[-1].chaos._checks == 4
        context = QueryContext()
        context.cancel("kill")
        with use_context(context), pytest.raises(QueryCancelled):
            context.tick()  # one tick, not a batch of them


@pytest.fixture
def view_db(db):
    """``db`` plus a view, so the rewrite has rules to fire."""
    db.execute("CREATE VIEW V (A, B) AS SELECT A, B FROM T WHERE A > 10")
    assert db.optimize(VIEW_QUERY).applications > 0
    return db


VIEW_QUERY = "SELECT A FROM V WHERE B > 30"


class TestUnifiedBudget:
    """One deadline: the rewrite reads its statement's deadline instant
    beside its own budget, whichever comes first cuts it."""

    def test_expired_statement_budget_blocks_evaluation(self, view_db):
        # an already-exhausted ambient budget degrades the rewrite at
        # its first poll, then trips before any rows flow
        ctx = QueryContext(timeout_ms=0.000001)
        with use_context(ctx):
            optimized = view_db.optimize(VIEW_QUERY)
            with pytest.raises(BudgetExceeded) as err:
                view_db.query(VIEW_QUERY)
        assert optimized.degraded is True
        assert optimized.rewrite_result.degraded_reason == "deadline"
        assert optimized.applications == 0
        assert optimized.resilience is None  # a timeout is not a policy
        assert err.value.resource == "deadline"

    def test_rewrite_budget_in_a_longer_statement_is_kept(self, view_db):
        # 50 ms of rewrite inside a 10 s statement stays 50 ms: the
        # stalled rewrite is cut, the statement goes on to answer
        view_db.optimizer.rewriter.add_rule(StallingRule(delay_s=0.06),
                                            "canonicalize")
        rows = view_db.query(VIEW_QUERY, deadline_ms=50.0,
                             timeout_ms=10_000).rows
        assert sorted(rows) == [(a,) for a in range(16, 60)]
        done = view_db.lifecycle.recent()[-1]
        assert done.phase == "done" and done.elapsed_ms() < 5_000
        report = view_db.explain_json(VIEW_QUERY, deadline_ms=50.0,
                                      options=StatementOptions(
                                          timeout_ms=10_000))
        assert report["resilience"]["degraded_reason"] == "deadline"

    def test_statement_deadline_cuts_long_rewrite_budget(self, view_db):
        with use_context(QueryContext(timeout_ms=0.000001)):
            optimized = view_db.optimize(VIEW_QUERY, deadline_ms=60_000)
        assert optimized.applications == 0
        assert optimized.resilience.degraded_reason == "deadline"

    def test_unexpired_budgets_leave_the_rewrite_alone(self, view_db):
        with use_context(QueryContext(timeout_ms=10_000)):
            optimized = view_db.optimize(VIEW_QUERY, deadline_ms=60_000)
        assert optimized.degraded is False
        assert optimized.applications > 0


def _bomb_db(**flags):
    db = sale_db(**flags)
    db.optimizer.rewriter.add_rule(AlwaysRaisingRule(), "simplify")
    return db


class TestRewritePolicyDecidedOnce:
    """Only ``checked`` / ``deadline_ms`` / ``resilient`` make a rewrite
    policy; a statement timeout or a benched rule must not switch
    sandboxing on behind the caller's back."""

    def test_bare_path_propagates_and_reports_nothing(self):
        with pytest.raises(RuleError):
            _bomb_db().query(SALE_QUERY)
        assert sale_db().explain_json(SALE_QUERY)["resilience"] is None

    def test_statement_timeout_alone_is_not_a_policy(self):
        with pytest.raises(RuleError):
            _bomb_db(statement_timeout_ms=60_000).query(SALE_QUERY)
        report = sale_db(statement_timeout_ms=60_000).explain_json(
            SALE_QUERY)
        assert report["resilience"] is None
        assert report["lifecycle"] is not None

    def test_a_benched_rule_alone_is_not_a_policy(self):
        db = _bomb_db()
        db.quarantine.note("merge", "search_merge", "benched by hand",
                           source="manual")
        with pytest.raises(RuleError):
            db.query(SALE_QUERY)
        db.quarantine.lift("search_merge")
        db.quarantine.note("simplify", "bomb", "benched by hand",
                           source="manual")
        # the benched bomb is skipped, with no policy to sandbox it
        report = db.explain_json(SALE_QUERY, execute=True)
        assert report["resilience"] is None
        assert "bomb" not in {e["rule"] for e in report["rewrite"]["trace"]}

    @pytest.mark.parametrize("flags", [
        {"resilient": True}, {"checked": True}, {"deadline_ms": 60_000.0},
    ], ids=lambda flags: next(iter(flags)))
    def test_each_resilience_knob_is_a_policy(self, flags):
        from repro.obs.bus import EventBus
        from repro.obs.events import RuleFailed, RuleQuarantined
        db = _bomb_db(**flags)
        events = []
        bus = EventBus()
        bus.subscribe(events.append, kinds=[RuleFailed, RuleQuarantined])
        assert sorted(db.query(SALE_QUERY, obs=bus).rows) \
            == [(15,), (25,), (40,)]
        assert [type(e) for e in events] \
            == [RuleFailed] * 3 + [RuleQuarantined]
        # the crash benching is on the one bench, with its source
        assert db.query(
            "SELECT Rule, Block, Source FROM sys.quarantine"
        ).rows == [("bomb", "simplify", "sandbox")]
        # ... so the next statement skips the rule and reports a clean
        # rewrite: explain and sys.quarantine tell one story
        report = db.explain_json(SALE_QUERY)
        assert report["resilience"]["rule_failures"] == []
        assert report["resilience"]["quarantined"] == []


class TestCancellation:
    def test_ambient_cancel_observed(self, db):
        ctx = QueryContext()
        ctx.cancel("kill")
        with use_context(ctx):
            with pytest.raises(QueryCancelled):
                db.query("SELECT A FROM T")

    def test_kill_by_id_mid_registry(self):
        db = Database(statement_timeout_ms=60_000)
        db.execute("TABLE T (A : NUMERIC)")
        db.execute("INSERT INTO T VALUES (1)")
        # registered statements are killable; finished ones are not
        assert db.kill("q999") is False


class TestExplainLifecycle:
    def test_governed_explain_has_section(self):
        db = Database(statement_timeout_ms=60_000)
        db.execute("TABLE T (A : NUMERIC)")
        db.execute("INSERT INTO T VALUES (1), (2)")
        report = db.explain_json("SELECT A FROM T", execute=True)
        section = report["lifecycle"]
        assert section is not None
        assert section["query_id"].startswith("q")
        assert section["timeout_ms"] == 60_000
        assert section["rows_charged"] > 0
        assert section["truncated"] is False
        assert validate_explain(report) == []

    def test_truncated_flag_reaches_explain(self):
        db = Database()
        db.execute("TABLE T (A : NUMERIC)")
        db.execute("INSERT INTO T VALUES (1), (2), (3), (4)")
        db.row_budget, db.degrade = 2, True
        report = db.explain_json("SELECT A FROM T", execute=True)
        assert report["lifecycle"]["truncated"] is True
        assert report["eval"]["truncated"] == 1
        assert validate_explain(report) == []


class TestSysQueries:
    def test_done_statements_visible(self):
        db = Database(statement_timeout_ms=60_000)
        db.execute("TABLE T (A : NUMERIC)")
        db.execute("INSERT INTO T VALUES (1), (2)")
        db.query("SELECT A FROM T")
        rows = db.query("SELECT QueryId, Phase, Source FROM sys.queries").rows
        phases = {qid: phase for qid, phase, _ in rows}
        assert phases["q1"] == "done"
        assert phases["q3"] == "done"
        # the sys.queries SELECT itself is governed and in flight
        assert "evaluate" in {phase for _, phase, _ in rows}
        sources = [source for _, _, source in rows]
        assert any("INSERT INTO T" in source for source in sources)

    def test_failed_statement_shows_outcome(self):
        db = Database(row_budget=1)
        db.execute("TABLE T (A : NUMERIC)")
        try:
            db.execute("INSERT INTO T VALUES (1), (2), (3)")
        except BudgetExceeded:
            pass
        recent = {c.query_id: c.phase for c in db.lifecycle.recent()}
        assert "failed" in recent.values()


class TestDmlGovernance:
    def test_insert_trips_hard(self):
        db = Database()
        db.execute("TABLE T (A : NUMERIC, PRIMARY KEY (A))")
        db.execute("INSERT INTO T VALUES (1), (2)")
        with pytest.raises(BudgetExceeded) as err:
            db.execute("INSERT INTO T VALUES (3), (4), (5)",
                       row_budget=2)
        assert err.value.resource == "rows"
        # the failed INSERT rolled back whole -- no partial DML
        assert len(db.query("SELECT A FROM T").rows) == 2
        assert db.fsck().violations == []

    def test_delete_scan_counts_toward_budget(self):
        db = Database()
        db.execute("TABLE T (A : NUMERIC, PRIMARY KEY (A))")
        db.execute("INSERT INTO T VALUES (1), (2)")
        with pytest.raises(BudgetExceeded):
            # the DELETE's row scan trips the budget mid-statement --
            # and must roll back
            db.execute("DELETE FROM T WHERE A >= 0", row_budget=1)
        assert len(db.query("SELECT A FROM T").rows) == 2
        assert db.fsck().violations == []

    def test_dml_never_degrades(self):
        # degrade mode must not truncate a mutation into a partial
        # write: the trip stays a hard error and rolls back
        db = Database()
        db.execute("TABLE T (A : NUMERIC, PRIMARY KEY (A))")
        db.execute("INSERT INTO T VALUES (1), (2)")
        with pytest.raises(BudgetExceeded):
            db.execute("UPDATE T SET A = A + 10 WHERE A >= 0",
                       row_budget=1, degrade=True)
        assert sorted(r[0] for r in db.query("SELECT A FROM T").rows) \
            == [1, 2]
        assert db.fsck().violations == []
