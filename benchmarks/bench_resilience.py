"""R1 -- resilience overhead: sandboxing and divergence tracking.

The resilience layer is strictly opt-in: with no policy installed the
engine runs its rules bare (no history, no try/except around rule
application, no validation; only the governor's poll before each block
and each application search remains).  These
benchmarks pin that contract down -- the "off" and "policy on" numbers
should be within noise of each other on a realistic rewrite workload,
and the sandboxed run with a hostile rule quantifies what surviving a
buggy extension costs.
"""

import pytest

from repro.core.rewriter import QueryRewriter
from repro.lera.typecheck import typecheck
from repro.resilience import ResiliencePolicy

from benchmarks.bench_control import stacked_db, QUERY
from tests.resilience.chaos import AlwaysRaisingRule


@pytest.fixture(scope="module")
def db():
    return stacked_db()


def typed_query(db):
    from repro.esql.parser import parse_statement
    term = db.translator.execute(parse_statement(QUERY))
    typed, __ = typecheck(term, db.catalog)
    return typed


def test_baseline_no_policy(benchmark, db):
    """The control: resilience entirely absent (None policy)."""
    typed = typed_query(db)
    rewriter = QueryRewriter(db.catalog)
    result = benchmark(rewriter.rewrite, typed)
    assert result.applications > 0
    assert result.resilience is None


def test_policy_enabled(benchmark, db):
    """Sandbox + divergence history on a healthy rule set.  Should sit
    within noise of the baseline: the history costs one hash per
    application, the sandbox one try/except per candidate."""
    typed = typed_query(db)
    rewriter = QueryRewriter(db.catalog)
    policy = ResiliencePolicy()
    result = benchmark(rewriter.rewrite, typed, resilience=policy)
    assert result.applications > 0
    assert result.resilience.rule_failures == []


def test_policy_without_divergence_tracking(benchmark, db):
    """Sandbox only: isolates the per-application history cost."""
    typed = typed_query(db)
    rewriter = QueryRewriter(db.catalog)
    policy = ResiliencePolicy(detect_divergence=False)
    result = benchmark(rewriter.rewrite, typed, resilience=policy)
    assert result.applications > 0


def test_sandboxed_hostile_rule(benchmark, db):
    """A quarantined always-raising rule in the pipeline: the price of
    surviving a buggy extension (one failure, then skip checks)."""
    typed = typed_query(db)

    def run():
        rewriter = QueryRewriter(db.catalog)
        rewriter.add_rule(AlwaysRaisingRule(), "simplify")
        return rewriter.rewrite(typed, resilience=ResiliencePolicy())

    result = benchmark(run)
    assert result.resilience.quarantined == ["bomb"]
    assert result.applications > 0


def test_work_budget_accounting(benchmark, db):
    """A generous budget that never triggers: measures the cost of the
    cooperative exhaustion checks alone."""
    typed = typed_query(db)
    rewriter = QueryRewriter(db.catalog)
    policy = ResiliencePolicy(max_applications=10_000)
    result = benchmark(rewriter.rewrite, typed, resilience=policy)
    assert result.degraded is False


# -- lifecycle governance ------------------------------------------------------
#
# The same opt-in contract as the rewrite sandbox, one layer down: with
# no QueryContext minted the evaluator's governance hook is a single
# ``is None`` test per operator, and these benchmarks pin the governed
# path's per-row cost (tick + row charge) plus the number the tentpole
# promises -- wall-clock cancellation latency, cancel() to the victim
# thread observing QueryCancelled and unwinding.

import threading
import time

from repro import Database
from repro.errors import QueryCancelled


def _governed_db(rows: int = 2_000) -> Database:
    db = Database()
    db.execute("TABLE G (A : NUMERIC, B : NUMERIC)")
    db.execute("INSERT INTO G VALUES " + ", ".join(
        f"({i}, {(i * 13) % 100})" for i in range(rows)
    ))
    return db


def test_ungoverned_scan_baseline(benchmark):
    """The control: no context minted, the evaluator hook is one
    ``is None`` test."""
    db = _governed_db()
    result = benchmark(db.query, "SELECT A, B FROM G WHERE B < 50")
    assert len(result.rows) == 1_000


def test_governed_scan(benchmark):
    """Budgets armed: per-row tick + charge against row and memory
    budgets that never trip."""
    db = _governed_db()
    result = benchmark(
        db.query, "SELECT A, B FROM G WHERE B < 50",
        row_budget=1 << 30, memory_budget=1 << 40,
    )
    assert len(result.rows) == 1_000


def test_cancellation_latency(benchmark):
    """cancel() to the victim unwinding: the tentpole's latency bound
    (one cooperative check interval of pure-python evaluation).

    The setup spawns a runaway cross join on a worker thread and waits
    for it to reach the evaluate phase; the measured region is exactly
    cancel + join."""
    db = _governed_db(rows=300)
    db.govern_statements = True
    runaway = ("SELECT G1.A FROM G G1, G G2, G G3 "
               "WHERE G1.B + G2.B + G3.B < -1")

    def setup():
        outcome = {}

        def run():
            try:
                db.query(runaway)
            except QueryCancelled as error:
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.time() + 30.0
        context = None
        while context is None and time.time() < deadline:
            for candidate in db.lifecycle.active():
                if candidate.phase == "evaluate":
                    context = candidate
            time.sleep(0.0005)
        assert context is not None
        return (thread, context, outcome), {}

    def cancel_and_join(thread, context, outcome):
        context.cancel("kill")
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome["error"].reason == "kill"

    benchmark.pedantic(cancel_and_join, setup=setup,
                       rounds=5, iterations=1)
