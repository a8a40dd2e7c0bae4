"""Two readers, one compiled tree.

The plan cache compiles each plan shape once; every text of a
template runs that one tree in a frame of its own.  Two threads read
one served database concurrently, texts of one template, one of them
under a row budget in degrade mode: each statement must get the rows,
the seven work counters and the truncation flag a fresh compile of its
own plan gives under its own budget -- nothing of one run may leak
into the other through the shared tree."""

import sys
import threading

from repro import Database
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


def test_two_readers_share_one_tree_and_keep_their_own_state():
    db = loaded()
    server = Server(db)
    expected = {(key, budgeted): fresh(db, TEMPLATE.format(key), budgeted)
                for key in KEYS for budgeted in (False, True)}
    assert all(expected[key, True][1]["truncated"] for key in KEYS)
    assert not any(expected[key, False][1]["truncated"] for key in KEYS)
    seen = {False: [], True: []}
    start = threading.Barrier(2)

    def reader(budgeted):
        knobs = {"row_budget": BUDGET, "degrade": True} if budgeted else {}
        start.wait()
        for __ in range(ROUNDS):
            for key in KEYS:
                stats = EvalStats()
                rows = db.query(TEMPLATE.format(key), stats=stats,
                                **knobs).rows
                seen[budgeted].append(((key, budgeted),
                                       (rows, stats.snapshot())))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two runs finely
    threads = [threading.Thread(target=reader, args=(budgeted,))
               for budgeted in (False, True)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        server.close()
    for budgeted in (False, True):
        assert len(seen[budgeted]) == ROUNDS * len(KEYS)
        for which, got in seen[budgeted]:
            assert got == expected[which], which
    assert db.plans.hits >= 2 * ROUNDS * len(KEYS) - 2 * len(KEYS)
    assert db.plans.counters()["plan_cache.trees"] == 1
