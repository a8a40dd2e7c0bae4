"""The plan cache: a repeated query text is planned once, and only
while nothing a rewrite reads has changed.

Three properties:

* **same plan** -- the plan a hit serves is ``==`` the plan a fresh
  ``Database.optimize`` builds, over every read template of the perf
  workloads and the fixed-seed qa sweep;
* **invalidation** -- every input of a rewrite besides the text bumps
  the plan version, and a text planned before the change gets the
  answer (or plan) of after it: one test per version source;
* **only clean plans** -- a degraded rewrite, a sandboxed rule failure
  and a checked-mode rollback are never stored.
"""

import re
import threading
from random import Random

import pytest

from benchmarks.perf import workloads
from benchmarks.perf.measure import load
from repro import Database, Extension
from repro.adt.types import INT
from repro.engine.plans import PlanCache, PlanVersion
from repro.qa.harness import case_seed
from repro.qa.oracle import DifferentialOracle
from repro.qa.query_gen import random_case
from repro.rules.rule import rule_from_text
from repro.terms.printer import term_to_str
from repro.terms.term import term_size

from tests.resilience.chaos import (SALE_QUERY, AlwaysRaisingRule,
                                    StallingRule, bad_comparison_rule,
                                    sale_db)

# SALE holds (1, 5), (1, 15), (2, 25), (2, 40); BIG keeps Amount > 10
BIG_ROWS = [(15,), (25,), (40,)]
ALL_ROWS = [(5,), (15,), (25,), (40,)]


def entry(db, text, rewrite=True):
    """The live cache entry of ``text`` (no counter moves)."""
    found = db.plans._entries.get((text, rewrite))
    return found if found is not None and db.plans.current(found) else None


def answer(db, text, **knobs):
    """Ask twice: the first call plans, the second must be a hit with
    the same rows; returns the rows."""
    first = sorted(db.query(text, **knobs).rows)
    hits = db.plans.hits
    second = sorted(db.query(text, **knobs).rows)
    assert db.plans.hits == hits + 1, "the repeated text was not a hit"
    assert first == second
    return first


def canonical(plan) -> str:
    """The printed plan with the Alexander method's fresh relation
    names (``R$MAGICk`` / ``R$BOUNDk``, numbered per process) numbered
    by first appearance instead."""
    seen: dict = {}
    return _FRESH.sub(
        lambda m: m.group(1) + str(seen.setdefault(m.group(2), len(seen))),
        term_to_str(plan))


_FRESH = re.compile(r"(\$(?:MAGIC|BOUND))(\d+)")


def assert_hit_is_fresh(db, text):
    """The cached plan of ``text`` is the plan a fresh rewrite builds
    (``==``; up to the numbering of fresh names where there are any)."""
    db.query(text)
    cached = entry(db, text)
    assert cached is not None
    fresh = db.optimize(text)
    if _FRESH.search(term_to_str(fresh.final)):
        assert canonical(cached.plan) == canonical(fresh.final)
    else:
        assert cached.plan == fresh.final
    assert cached.schema == fresh.schema
    assert cached.firings == len(fresh.trace)


# -- the hit path -----------------------------------------------------------------

class TestHit:
    def test_a_repeated_text_is_not_parsed_translated_or_rewritten(
            self, monkeypatch):
        db = sale_db()
        db.query(SALE_QUERY)
        calls = []
        for owner, name in ((db.translator, "execute"),
                            (db.optimizer, "optimize")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, __o=original,
                                __n=name, **k: calls.append(__n)
                                or __o(*a, **k))
        import repro.engine.database as database
        monkeypatch.setattr(database, "parse_script_with_sources",
                            lambda *a, **k: calls.append("parse"))
        assert sorted(db.query(SALE_QUERY).rows) == BIG_ROWS
        assert calls == []

    def test_rewrite_is_part_of_the_key(self):
        db = sale_db()
        db.query(SALE_QUERY)
        db.query(SALE_QUERY, rewrite=False)
        assert len(db.plans) == 2
        assert entry(db, SALE_QUERY, rewrite=False).firings == 0
        assert entry(db, SALE_QUERY).firings > 0
        assert db.plans.hits == 0

    def test_checked_mode_neither_reads_nor_stores_a_plan(self):
        db = sale_db()
        db.query(SALE_QUERY, checked=True)
        assert len(db.plans) == 0
        db.query(SALE_QUERY)
        db.query(SALE_QUERY, checked=True)
        assert db.plans.hits == 0
        assert db.plans.misses == 1

    def test_a_parsed_pair_shares_the_entry_of_its_text(self):
        from repro.esql.parser import parse_script_with_sources
        db = sale_db()
        db.query(SALE_QUERY)
        (pair,) = parse_script_with_sources(SALE_QUERY)
        assert sorted(db.query(pair).rows) == BIG_ROWS
        assert db.plans.hits == 1

    def test_a_non_query_is_still_refused(self):
        from repro.errors import TranslationError
        db = sale_db()
        with pytest.raises(TranslationError):
            db.query("INSERT INTO SALE VALUES (3, 3)")
        assert len(db.query("SELECT Amount FROM SALE").rows) == 4

    def test_explain_optimize_and_stats_always_replan(self):
        db = sale_db()
        answer(db, SALE_QUERY)
        hits, firings = db.plans.hits, db.ledger.recorded
        assert db.explain_json(SALE_QUERY)["rewrite"]["trace"]
        assert db.optimize(SALE_QUERY).trace
        assert db.query_with_stats(SALE_QUERY)[2].trace
        assert "search_merge" in db.explain(SALE_QUERY, verbose=True)
        assert db.plans.hits == hits
        assert db.ledger.recorded > firings


class TestVisible:
    def test_sys_statements_counts_plan_hits_and_keeps_rule_firings(self):
        db = sale_db()
        for __ in range(3):
            db.query(SALE_QUERY)
        firings = entry(db, SALE_QUERY).firings
        (row,) = db.query(
            "SELECT Calls, PlanHits, RuleFirings, RewriteMs "
            "FROM sys.statements WHERE Template = 'SELECT AMOUNT FROM BIG'"
        ).rows
        calls, hits, rule_firings, rewrite_ms = row
        assert (calls, hits, rule_firings) == (3, 2, 3 * firings)
        assert rewrite_ms > 0  # the one call that rewrote

    def test_a_hit_records_no_rewrite(self):
        """``sys.rewrites`` and ``sys.rule_heat`` record rewrites
        performed; a hit performs none."""
        db = sale_db()
        db.query(SALE_QUERY)
        rewrites = db.query("SELECT Rule FROM sys.rewrites").rows
        heat = db.query("SELECT Rule, Fired FROM sys.rule_heat").rows
        db.query(SALE_QUERY)
        assert db.query("SELECT Rule FROM sys.rewrites").rows == rewrites
        assert db.query(
            "SELECT Rule, Fired FROM sys.rule_heat").rows == heat

    def test_sys_metrics_shows_the_counters_when_served(self):
        from repro.server import Server
        db = sale_db()
        server = Server(db)
        try:
            server.query(SALE_QUERY)
            server.query(SALE_QUERY)
            db.execute("CREATE VIEW HUGE (Amount) AS "
                       "SELECT Amount FROM BIG WHERE Amount > 30")
            server.query(SALE_QUERY)
            metrics = dict(server.query(
                "SELECT Name, Value FROM sys.metrics").rows)
        finally:
            server.close()
        assert metrics["plan_cache.hits"] == 1
        assert metrics["plan_cache.invalidations"] == 1
        assert metrics["plan_cache.evictions"] == 0
        assert metrics["plan_cache.misses"] >= 2


# -- same plan as a fresh rewrite ---------------------------------------------------

@pytest.mark.parametrize("name", ["point_filter", "join_heavy",
                                  "recursive_view", "rewrite_heavy",
                                  "served_mixed", "dml_durable"])
def test_every_perf_read_template_hits_the_fresh_plan(name):
    workload = workloads.build(name, 7, 0.1)
    db = Database()
    load(db, workload)
    texts = sorted({s.text for s in workload.statements
                    if s.kind == "read" and "sys." not in s.text.lower()})
    assert texts
    for text in texts:
        assert_hit_is_fresh(db, text)


def test_the_fixed_seed_qa_sweep_hits_the_fresh_plan():
    oracle = DifferentialOracle()
    checked = 0
    for index in range(300):
        case, __ = random_case(Random(case_seed(20260808, index)))
        db = oracle.build_db(case)
        try:
            try:
                db.query(case.query)
            except Exception:
                continue  # a generator miss, skipped by the sweep too
            assert_hit_is_fresh(db, case.query)
            checked += 1
        finally:
            db.close()
    assert checked > 250


# -- invalidation: one test per version source ----------------------------------------

class TestInvalidation:
    QUERY = "SELECT Amount FROM BIG WHERE Shop = 2"

    def test_create_and_drop_view(self):
        db = sale_db()
        assert answer(db, self.QUERY) == [(25,), (40,)]
        db.execute("DROP VIEW BIG")
        db.execute("CREATE VIEW BIG (Shop, Amount) AS "
                   "SELECT Shop, Amount FROM SALE WHERE Amount > 30")
        assert answer(db, self.QUERY) == [(40,)]
        assert db.plans.invalidations == 1

    def test_drop_and_recreate_table_with_another_schema(self):
        db = Database()
        db.execute("TABLE T (A : NUMERIC, B : NUMERIC)")
        db.execute("INSERT INTO T VALUES (1, 2)")
        assert answer(db, "SELECT * FROM T") == [(1, 2)]
        db.execute("DROP TABLE T")
        db.execute("TABLE T (A : NUMERIC)")
        db.execute("INSERT INTO T VALUES (7)")
        assert answer(db, "SELECT * FROM T") == [(7,)]
        assert db.query("SELECT * FROM T").schema.names == ("A",)

    def test_add_integrity_constraint(self):
        db = Database()
        db.execute("TYPE Category ENUMERATION OF ('A', 'B')")
        db.execute("TABLE ITEM (Id : NUMERIC, Cat : Category)")
        text = "SELECT Id FROM ITEM WHERE Cat = 'Z'"
        answer(db, text)
        assert "EMPTY" not in term_to_str(entry(db, text).plan)
        db.add_integrity_constraint(
            "ic: F(x) / ISA(x, Category) "
            "--> F(x) AND MEMBER(x, MAKESET('A', 'B')) /"
        )
        answer(db, text)
        assert "EMPTY" in term_to_str(entry(db, text).plan)

    def test_install(self):
        db = sale_db()
        assert answer(db, SALE_QUERY) == BIG_ROWS
        db.install(Extension("loose").rule(
            "simplify", "bad_cmp: x > y / --> true /"))
        assert answer(db, SALE_QUERY) == ALL_ROWS

    def test_add_rule(self):
        db = sale_db()
        assert answer(db, SALE_QUERY) == BIG_ROWS
        db.optimizer.rewriter.add_rule(bad_comparison_rule(), "simplify")
        assert answer(db, SALE_QUERY) == ALL_ROWS

    def test_set_block_limit(self):
        db = sale_db()
        answer(db, SALE_QUERY)
        merged = entry(db, SALE_QUERY).plan
        db.optimizer.rewriter.set_block_limit("merge", 0)
        db.optimizer.rewriter.set_block_limit("merge_again", 0)
        assert answer(db, SALE_QUERY) == BIG_ROWS
        assert entry(db, SALE_QUERY).plan != merged
        assert_hit_is_fresh(db, SALE_QUERY)

    def _bounded(self, db):
        """A rule tightening ``x > 10`` to ``x > w``, with the bound
        from the method BOUND and the guard from the predicate WIDE."""
        from repro.terms.term import num
        rewriter = db.optimizer.rewriter
        rewriter.add_rule(rule_from_text(
            "late: x > 10 / WIDE(x) --> x > w / BOUND(x, w)"), "simplify")
        rewriter.add_predicate("WIDE", lambda args, b, c: True)
        rewriter.add_method(
            "BOUND", 2, lambda inst, raw, b, c: {"w": num(20)})
        return rewriter

    def test_add_method(self):
        from repro.terms.term import num
        db = sale_db()
        rewriter = self._bounded(db)
        assert answer(db, SALE_QUERY) == [(25,), (40,)]
        rewriter.add_method(
            "BOUND", 2, lambda inst, raw, b, c: {"w": num(30)})
        assert answer(db, SALE_QUERY) == [(40,)]

    def test_add_predicate(self):
        db = sale_db()
        rewriter = self._bounded(db)
        assert answer(db, SALE_QUERY) == [(25,), (40,)]
        rewriter.add_predicate("WIDE", lambda args, b, c: False)
        assert answer(db, SALE_QUERY) == BIG_ROWS

    def test_quarantine_note_and_lift(self):
        db = sale_db()
        db.optimizer.rewriter.add_rule(bad_comparison_rule(), "simplify")
        assert answer(db, SALE_QUERY) == ALL_ROWS
        db.quarantine.note("simplify", "bad_cmp", "operator", "manual")
        assert answer(db, SALE_QUERY) == BIG_ROWS
        db.quarantine.lift("bad_cmp")
        assert answer(db, SALE_QUERY) == ALL_ROWS

    def test_register_virtual(self):
        db = Database()
        db.catalog.register_virtual("sys.probe", [("X", INT)],
                                    lambda: [(1,)])
        assert answer(db, "SELECT * FROM sys.probe") == [(1,)]
        db.catalog.register_virtual("sys.probe", [("X", INT), ("Y", INT)],
                                    lambda: [(2, 3)])
        assert answer(db, "SELECT * FROM sys.probe") == [(2, 3)]

    def test_a_hit_gone_stale_before_the_lock_is_planned_again(
            self, monkeypatch):
        """The lookup runs before the statement takes its read lock; a
        writer that commits in between makes the entry stale, and the
        statement plans afresh under the lock."""
        db = sale_db()
        db.query(SALE_QUERY)
        stale = entry(db, SALE_QUERY)
        db.execute("DROP VIEW BIG")
        db.execute("CREATE VIEW BIG (Shop, Amount) AS "
                   "SELECT Shop, Amount FROM SALE WHERE Amount > 30")
        monkeypatch.setattr(db.plans, "get", lambda key: stale)
        assert db.query(SALE_QUERY).rows == [(40,)]

    def test_a_type_definition_bumps_the_version(self):
        db = Database()
        version = db.plans.version.value
        db.execute("TYPE Color ENUMERATION OF ('R', 'G')")
        assert db.plans.version.value != version


# -- only clean rewrites are stored -------------------------------------------------

class TestOnlyCleanPlans:
    def test_a_degraded_rewrite_is_not_stored(self):
        db = sale_db()
        db.optimizer.rewriter.add_rule(StallingRule(delay_s=0.01),
                                       "simplify")
        assert db.optimize(SALE_QUERY, deadline_ms=5).degraded
        db.query(SALE_QUERY, deadline_ms=5)
        assert entry(db, SALE_QUERY) is None
        assert len(db.plans) == 0

    def test_a_sandboxed_failure_is_not_stored(self):
        db = sale_db(resilient=True)
        db.optimizer.rewriter.add_rule(AlwaysRaisingRule(), "simplify")
        assert sorted(db.query(SALE_QUERY).rows) == BIG_ROWS
        assert entry(db, SALE_QUERY) is None

    def test_a_checked_rollback_is_not_stored(self):
        db = sale_db(checked=True)
        db.optimizer.rewriter.add_rule(bad_comparison_rule(), "simplify")
        assert sorted(db.query(SALE_QUERY).rows) == BIG_ROWS
        assert len(db.plans) == 0
        assert "bad_cmp" in db.quarantine
        # with the rule benched the rewrite is clean again: an
        # unchecked statement stores it
        assert answer(db, SALE_QUERY, checked=False) == BIG_ROWS
        assert entry(db, SALE_QUERY).firings > 0

    def test_checked_mode_validates_again_after_dml(self):
        """Checked mode validates a rewrite on the rows present now.
        A rule that was harmless on an empty table and diverges once
        rows arrive is still caught: DML bumps no plan version, so a
        stored plan would have been served unvalidated."""
        db = Database(checked=True)
        db.execute("TABLE SALE (Shop : NUMERIC, Amount : NUMERIC); "
                   "CREATE VIEW BIG (Shop, Amount) AS "
                   "SELECT Shop, Amount FROM SALE WHERE Amount > 10")
        db.optimizer.rewriter.add_rule(bad_comparison_rule(), "simplify")
        assert db.query(SALE_QUERY).rows == []
        assert "bad_cmp" not in db.quarantine
        db.execute("INSERT INTO SALE VALUES (1, 5), (1, 15), (2, 25), (2, 40)")
        assert sorted(db.query(SALE_QUERY).rows) == BIG_ROWS
        assert "bad_cmp" in db.quarantine

    def test_a_version_change_during_the_rewrite_is_not_stored(self):
        db = sale_db()

        class Bumping(StallingRule):
            def apply(self, subject, ctx):
                db.plans.version.bump()
                return None

        db.optimizer.rewriter.add_rule(Bumping(), "simplify")
        db.query(SALE_QUERY)
        assert len(db.plans) == 0


# -- the bound and the sharing -------------------------------------------------------

class TestBound:
    def test_nodes_stay_under_the_capacity_and_the_oldest_go(self,
                                                             monkeypatch):
        import repro.engine.plans as plans
        db = sale_db()
        texts = [f"SELECT Amount FROM BIG WHERE Shop = {i}"
                 for i in range(12)]
        size = term_size(db.optimize(texts[0]).final)
        monkeypatch.setattr(plans, "CAPACITY_NODES", 5 * size)
        for text in texts:
            db.query(text)
        assert db.plans.nodes <= 5 * size
        assert db.plans.evictions == len(texts) - len(db.plans)
        assert entry(db, texts[-1]) is not None
        assert entry(db, texts[0]) is None

    def test_entries_share_subterms_schemas_and_templates(self):
        db = sale_db()
        db.query("SELECT Amount FROM BIG WHERE Shop = 1")
        db.query("SELECT Amount FROM BIG WHERE Shop = 2")
        one = entry(db, "SELECT Amount FROM BIG WHERE Shop = 1")
        two = entry(db, "SELECT Amount FROM BIG WHERE Shop = 2")
        assert one.plan != two.plan
        assert one.schema is two.schema
        assert one.fingerprint is two.fingerprint
        assert one.plan.args[0] is two.plan.args[0]  # the relation list

    def test_constants_equal_in_value_but_not_in_type_stay_apart(self):
        from repro.terms.term import Const, mk_fun
        cache = PlanCache(PlanVersion())
        one, __ = cache._share_term(mk_fun("F", [Const(1, "real")]))
        other, __ = cache._share_term(mk_fun("F", [Const(1.0, "real")]))
        assert one == other  # equal as terms, yet not one object
        assert type(one.args[0].value) is int
        assert type(other.args[0].value) is float


# -- the qa cache leg ----------------------------------------------------------------

class TestOracleLeg:
    def test_the_cache_leg_runs_and_agrees(self):
        oracle = DifferentialOracle(check_subsets=False)
        case, __ = random_case(Random(case_seed(20260808, 3)))
        assert oracle.check(case) is None

    def test_a_wrong_cached_plan_is_caught(self, monkeypatch):
        """A cache that served ``DIFFERENCE(plan, plan)`` -- the right
        schema, no rows -- is a ``cache`` divergence."""
        from repro.terms.term import mk_fun
        original = PlanCache.get

        def poisoned(self, key):
            found = original(self, key)
            if found is None:
                return None
            return found._replace(
                plan=mk_fun("DIFFERENCE", [found.plan, found.plan]))

        monkeypatch.setattr(PlanCache, "get", poisoned)
        oracle = DifferentialOracle(check_subsets=False,
                                    check_engine=False)
        db = sale_db()
        case = type("Case", (), {"query": SALE_QUERY,
                                 "setup_script": lambda self: ""})()
        monkeypatch.setattr(oracle, "build_db", lambda case: db)
        divergence = oracle.check(case)
        assert divergence is not None and divergence.mode == "cache"


# -- served: reads racing DDL ---------------------------------------------------------

def test_served_reads_racing_ddl_get_the_answer_of_a_committed_state():
    """Two threads, one server: a reader repeats one text while a
    writer swaps the view under it.  Every read answers as of one of
    the two definitions (or finds the view dropped) -- never a plan of
    one definition over the catalog of the other."""
    from repro.errors import CatalogError, TranslationError
    from repro.server import Server
    db = sale_db()
    server = Server(db)
    bodies = {"Amount > 10": BIG_ROWS, "Amount > 30": [(40,)]}
    answers, errors = [], []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            try:
                answers.append(sorted(server.query(SALE_QUERY).rows))
            except (CatalogError, TranslationError):
                pass  # between the DROP and the CREATE
            except Exception as error:  # pragma: no cover - the bug
                errors.append(error)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(30):
            body = list(bodies)[i % 2]
            server.execute("DROP VIEW BIG")
            server.execute("CREATE VIEW BIG (Shop, Amount) AS "
                           f"SELECT Shop, Amount FROM SALE WHERE {body}")
    finally:
        stop.set()
        thread.join()
    try:
        assert not errors
        assert answers
        assert all(rows in bodies.values() for rows in answers)
        # the last definition written is "Amount > 30"
        assert sorted(server.query(SALE_QUERY).rows) == [(40,)]
        assert db.plans.hits > 0
    finally:
        server.close()


# -- pool replicas ---------------------------------------------------------------------

def test_a_pool_replica_serves_a_repeated_text_from_its_own_cache():
    from repro.pool import PoolConfig, Supervisor
    db = sale_db()
    pool = Supervisor(db, PoolConfig(workers=1))
    pool.start()
    try:
        assert pool.wait_ready(timeout_s=60.0, workers=1)
        for __ in range(3):
            assert sorted(pool.submit(SALE_QUERY).rows) == BIG_ROWS
    finally:
        pool.stop()
    (row,) = db.query(
        "SELECT Calls, PlanHits FROM sys.statements "
        "WHERE Template = 'SELECT AMOUNT FROM BIG'").rows
    assert row == (3, 2)
