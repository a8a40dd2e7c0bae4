"""Two readers, one compiled tree.

The plan cache compiles each plan shape once; every text of a
template runs that one tree in a frame of its own.  Two threads read
one served database concurrently, texts of one template, one of them
under a row budget in degrade mode, or in EXPLAIN ANALYZE mode: each
statement must get the rows, the seven work counters and the
truncation flag a fresh compile of its own plan gives under its own
budget, and an analyzed one the actuals of a run alone -- nothing of
one run may leak into the other through the shared tree."""

import sys
import threading

from repro import Database
from repro.engine.analyze import AnalyzeCollector
from repro.engine.evaluate import Evaluator
from repro.engine.stats import EvalStats
from repro.lifecycle.context import QueryContext
from repro.server import Server

TEMPLATE = "SELECT V FROM T WHERE K = {}"
KEYS = range(5)
BUDGET = 25
ROUNDS = 20


def loaded() -> Database:
    db = Database()
    db.execute("TABLE T (K : NUMERIC, V : NUMERIC)")
    db.execute("INSERT INTO T VALUES " + ", ".join(
        f"({i % len(KEYS)}, {i})" for i in range(400)))
    return db


def fresh(db, text, budgeted):
    """Rows and counters of a fresh compile of ``text``'s plan."""
    stats = EvalStats()
    context = (QueryContext(row_budget=BUDGET, degrade=True)
               if budgeted else None)
    rows = Evaluator(db.catalog, stats=stats, context=context).evaluate(
        db.optimize(text).final).rows
    return rows, stats.snapshot()


def race(db, reader) -> None:
    """``reader(False)`` and ``reader(True)`` in two threads over one
    server, interleaved finely."""
    server = Server(db)
    start = threading.Barrier(2)

    def run(flag):
        start.wait()
        reader(flag)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two runs finely
    threads = [threading.Thread(target=run, args=(flag,))
               for flag in (False, True)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        server.close()


def actuals(collector) -> list:
    return [(node["operator"], node["rows"], node["loops"])
            for node in collector.snapshot()]


def test_two_readers_share_one_tree_and_keep_their_own_state():
    db = loaded()
    expected = {(key, budgeted): fresh(db, TEMPLATE.format(key), budgeted)
                for key in KEYS for budgeted in (False, True)}
    assert all(expected[key, True][1]["truncated"] for key in KEYS)
    assert not any(expected[key, False][1]["truncated"] for key in KEYS)
    seen = {False: [], True: []}

    def reader(budgeted):
        knobs = {"row_budget": BUDGET, "degrade": True} if budgeted else {}
        for __ in range(ROUNDS):
            for key in KEYS:
                stats = EvalStats()
                rows = db.query(TEMPLATE.format(key), stats=stats,
                                **knobs).rows
                seen[budgeted].append(((key, budgeted),
                                       (rows, stats.snapshot())))

    race(db, reader)
    for budgeted in (False, True):
        assert len(seen[budgeted]) == ROUNDS * len(KEYS)
        for which, got in seen[budgeted]:
            assert got == expected[which], which
    assert db.plans.hits >= 2 * ROUNDS * len(KEYS) - 2 * len(KEYS)
    assert db.plans.counters()["plan_cache.trees"] == 1


def test_an_analyzed_reader_and_a_bare_one_share_one_tree():
    """The collector rides in the analyzed run's frame: it counts that
    run's operators alone (one loop per operator run), and the same
    loops as the text analyzed with no other reader about."""
    db = loaded()
    expected = {key: fresh(db, TEMPLATE.format(key), False) for key in KEYS}
    alone = {}
    for key in KEYS:
        collector = AnalyzeCollector()
        db.query(TEMPLATE.format(key), analyze=collector)
        alone[key] = actuals(collector)
    seen = {False: [], True: []}

    def reader(analyzed):
        for __ in range(ROUNDS):
            for key in KEYS:
                stats = EvalStats()
                collector = AnalyzeCollector() if analyzed else False
                rows = db.query(TEMPLATE.format(key), stats=stats,
                                analyze=collector).rows
                seen[analyzed].append(
                    (key, (rows, stats.snapshot()), collector))

    race(db, reader)
    for analyzed in (False, True):
        assert len(seen[analyzed]) == ROUNDS * len(KEYS)
        for key, got, collector in seen[analyzed]:
            assert got == expected[key], key
            if analyzed:
                assert actuals(collector) == alone[key], key
                assert sum(loops for __, __, loops in actuals(collector)) \
                    == got[1]["operators_evaluated"]
    assert db.plans.counters()["plan_cache.trees"] == 1
