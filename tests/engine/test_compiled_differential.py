"""The compiled evaluator against the per-row interpreter it replaced.

Compiling a plan into closures, deciding loop order and probes once
and counting work in locals are allowed to change how long an
evaluation takes and nothing else.  In each of the four engine
configurations (``hash_joins`` x ``semi_naive``) the shipped
:class:`Evaluator` and :class:`ReferenceEvaluator` must return the
same row list *in the same order* (answers are bags; order is the
stricter check), the same seven ``EvalStats`` counters, the same
number of ``QueryContext`` ticks and checks, the same budget charges
and the same exception type and message -- over every read statement of
the perf workloads with data, the ``CLAIMS`` plans of EXPERIMENTS.md,
the fixed-seed qa sweep, hand-built failing plans and a row budget
tripping inside every materializing operator.
"""

from collections import defaultdict

import pytest

from benchmarks.perf import workloads
from benchmarks.perf.measure import load
from repro import Database
from repro.engine.evaluate import Evaluator
from repro.engine.stats import EvalStats
from repro.esql.fingerprint import fingerprint_source
from repro.lera import ops
from repro.lifecycle.context import QueryContext
from repro.terms.parser import parse_term
from repro.terms.term import AttrRef, Var, boolean, mk_fun, num, sym

from tests.conftest import chain_graph, make_graph_db
from tests.engine.reference_evaluator import ReferenceEvaluator
from tests.generated_plans import generated_queries
from tests.integration.test_experiments import CLAIMS, database

# (hash_joins, semi_naive): the default, A6, A3 and both ablations;
# the sweeps repeat the first two under a governing context (the naive
# fixpoint is what takes the time), the hand-built cases all four
CONFIGS = [(True, True), (False, True), (True, False), (False, False)]


class CountingContext(QueryContext):
    """A governing context that counts the calls made to it."""

    def __init__(self, **budgets):
        super().__init__(query_id="q1", **budgets)
        self.tick_calls = self.tick_units = self.check_calls = 0

    def tick(self, n: int = 1) -> None:
        self.tick_calls += 1
        self.tick_units += n
        super().tick(n)

    def check(self) -> None:
        self.check_calls += 1
        super().check()


def observe(evaluator_class, catalog, plan, hash_joins, semi_naive,
            budgets=None, **options):
    """Everything one evaluation lets an outsider see."""
    context = None if budgets is None else CountingContext(**budgets)
    stats = EvalStats()
    evaluator = evaluator_class(
        catalog, stats=stats, hash_joins=hash_joins,
        semi_naive=semi_naive, context=context, **options)
    rows = error = None
    try:
        rows = evaluator.evaluate(plan).rows
    except Exception as exc:
        error = (type(exc), str(exc))
    seen = {"rows": rows, "error": error, "stats": stats.snapshot()}
    if context is not None:
        seen.update(
            ticks=(context.tick_calls, context.tick_units),
            checks=context.check_calls,
            charged=context.rows_charged,
            memory=(context.memory.current, context.memory.peak),
            truncated=context.truncated,
        )
    return seen


def assert_same(catalog, plan, budgets=None, configs=CONFIGS, **options):
    """Both evaluators on one plan, per configuration; returns what
    the compiled one showed under the first."""
    first = None
    for hash_joins, semi_naive in configs:
        shipped = observe(Evaluator, catalog, plan, hash_joins,
                          semi_naive, budgets, **options)
        reference = observe(ReferenceEvaluator, catalog, plan,
                            hash_joins, semi_naive, budgets, **options)
        assert shipped == reference, (hash_joins, semi_naive, plan)
        first = first or shipped
    return first


def assert_same_both_ways(catalog, plan, governed=CONFIGS):
    """Ungoverned and under a context with nothing to trip."""
    assert_same(catalog, plan)
    return assert_same(catalog, plan, budgets={}, configs=governed)


def plans(db, query):
    return (db.optimize(query, rewrite=False).final,
            db.optimize(query).final)


# -- the perf workloads, with data ----------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_read_template_of_the_perf_workloads(name):
    """Scale 0.1, the benchmark's seed of record; two instances of
    each template (a template is a statement fingerprint), rewritten
    and unrewritten, against the initial table state."""
    workload = workloads.build(name, 7, 0.1)
    db = Database()
    load(db, workload)
    by_template = defaultdict(list)
    for statement in workload.statements:
        if statement.kind == "read":
            texts = by_template[
                fingerprint_source(statement.text).fingerprint]
            if statement.text not in texts:
                texts.append(statement.text)
    assert by_template
    answered = 0
    for texts in by_template.values():
        for text in texts[:2]:
            for plan in plans(db, text):
                answered += bool(assert_same_both_ways(
                    db.catalog, plan, governed=CONFIGS[:2])["rows"])
    assert answered >= len(by_template)  # the data makes them answer


# -- EXPERIMENTS.md and the qa sweep ----------------------------------------------

@pytest.mark.parametrize("claim", CLAIMS)
def test_the_plans_of_every_claim(claim):
    name, query = CLAIMS[claim][:2]
    db = database(name)
    for plan in plans(db, query):
        assert_same_both_ways(db.catalog, plan, governed=CONFIGS[:2])


def test_fixed_seed_qa_sweep_and_generated_plans():
    """The CI fuzz sweep's 300 cases (views in half of them) and the
    workload templates of ``tests/generated_plans.py``."""
    compared = answered = 0
    for db, query in generated_queries(cases=300):
        for plan in plans(db, query):
            answered += bool(assert_same_both_ways(
                db.catalog, plan, governed=CONFIGS[:2])["rows"])
        compared += 1
    assert compared >= 290
    assert answered >= 200  # the sweep compares answers, not empties


# -- errors -----------------------------------------------------------------------

@pytest.fixture
def graph():
    db = make_graph_db(chain_graph(6))
    db.execute("TABLE TAGGED (Id : NUMERIC, Tags : SET OF NUMERIC)")
    db.execute("TABLE NOTHING (Id : NUMERIC)")
    db.execute("INSERT INTO TAGGED VALUES " + ", ".join(
        f"({i}, SET({i}, {i + 1}))" for i in range(1, 5)))
    return db


def search(inputs, qual, items):
    return ops.search([sym(i) for i in inputs], parse_term(qual), items)


FAILING = {
    "unknown relation": lambda: search(
        ["EDGE", "GHOST"], "#1.1 = #2.1", [AttrRef(1, 1)]),
    "unknown function": lambda: search(
        ["EDGE"], "NOSUCH(#1.1) = 1", [AttrRef(1, 1)]),
    "unknown function, arguments first": lambda: search(
        ["EDGE"], "NOSUCH(#1.9) = 1", [AttrRef(1, 1)]),
    "wrong arity": lambda: search(
        ["EDGE"], "ISEMPTY(#1.1, #1.2)", [AttrRef(1, 1)]),
    "row too narrow": lambda: search(
        ["EDGE"], "#1.7 = 1", [AttrRef(1, 1)]),
    "row too narrow, projected": lambda: search(
        ["EDGE"], "TRUE", [AttrRef(1, 1), AttrRef(1, 4)]),
    "row too narrow, probed": lambda: search(
        ["EDGE", "EDGE"], "#1.7 = #2.1", [AttrRef(1, 1)]),
    "row too narrow, indexed": lambda: search(
        ["EDGE", "EDGE"], "#1.2 = #2.7", [AttrRef(1, 1)]),
    "too few bound relations": lambda: ops.filter_(
        sym("EDGE"), parse_term("#2.1 = 1")),
    "conjunct beyond the inputs": lambda: search(
        ["EDGE"], "#1.1 = #3.1", [AttrRef(1, 1)]),
    "not an expression": lambda: ops.filter_(sym("EDGE"), Var("x")),
    "not a collection": lambda: mk_fun(
        "UNNEST", [sym("EDGE"), AttrRef(1, 2)]),
    "unknown operator": lambda: mk_fun("SORT", [sym("EDGE")]),
    "not a term of the algebra": lambda: ops.union([sym("EDGE"), num(3)]),
    "malformed search": lambda: mk_fun(
        "SEARCH", [sym("EDGE"), boolean(True)]),
    "an input fails before the loop": lambda: search(
        ["EDGE", "GHOST"], "NOSUCH(#1.1) = 1", [AttrRef(1, 1)]),
}


@pytest.mark.parametrize("case", FAILING)
def test_same_exception_same_message_same_work_before_it(graph, case):
    shown = assert_same_both_ways(graph.catalog, FAILING[case]())
    assert shown["error"] is not None


def test_a_failure_that_is_never_reached_is_never_raised(graph):
    for plan in (
        # over empty input the unknown function is never called
        search(["NOTHING"], "NOSUCH(#1.1) = 1", [AttrRef(1, 1)]),
        # a constant-false conjunct returns before any input is read
        search(["EDGE", "EDGE"], "NOSUCH(#1.1) AND 1 = 2", [AttrRef(1, 1)]),
        # AND / OR stop at the first decisive operand
        ops.filter_(sym("EDGE"), parse_term("#1.1 > 0 OR NOSUCH(#1.1)")),
        ops.filter_(sym("EDGE"), parse_term("#1.1 < 0 AND #1.9 = 1")),
    ):
        assert assert_same_both_ways(graph.catalog, plan)["error"] is None
    unread = search(["EDGE"], "1 = 2", [AttrRef(1, 1)])
    assert assert_same(graph.catalog, unread)["stats"]["tuples_scanned"] == 0


def test_the_probe_declines_where_equality_broadcasts(graph):
    """``=`` over a SET OF column is true when any element matches: the
    hashed tiers must scan, and agree with the nested loop."""
    for qual in ("#1.2 = #2.1", "#2.1 = #1.2", "#1.2 = #2.2"):
        plan = search(["TAGGED", "TAGGED"], qual,
                      [AttrRef(1, 1), AttrRef(2, 1)])
        shown = assert_same_both_ways(graph.catalog, plan)
        nested = observe(Evaluator, graph.catalog, plan, False, True)
        assert shown["rows"] == nested["rows"] and shown["rows"]


def test_a_fixpoint_that_does_not_converge(graph):
    plan = graph.optimize("SELECT Src, Dst FROM REACH",
                          rewrite=False).final
    shown = assert_same(graph.catalog, plan, max_fix_iterations=2)
    assert "did not converge" in shown["error"][1]
    assert_same(graph.catalog, plan, budgets={}, max_fix_iterations=2)


# -- budgets tripping inside each materializing operator ----------------------------

def budget_plans(db):
    edge, tagged = sym("EDGE"), sym("TAGGED")
    closure = db.optimize("SELECT Src, Dst FROM REACH", rewrite=False).final
    pair = parse_term("#1.2 = #2.1")
    return {
        "SCAN": edge,
        "SEARCH": search(["EDGE", "EDGE"], "#1.2 = #2.1",
                         [AttrRef(1, 1), AttrRef(2, 2)]),
        "JOIN": ops.join([edge, edge], pair),
        "FILTER": ops.filter_(edge, parse_term("#1.1 > 1")),
        "PROJECTION": ops.projection(edge, [AttrRef(1, 2)]),
        "SEMIJOIN": mk_fun("SEMIJOIN", [edge, edge, pair]),
        "ANTIJOIN": mk_fun("ANTIJOIN", [edge, edge, pair]),
        "UNNEST": mk_fun("UNNEST", [tagged, AttrRef(1, 2)]),
        "NEST": db.optimize(
            "SELECT Src, MakeSet(Dst) FROM EDGE GROUP BY Src",
            rewrite=False).final,
        "UNION": ops.union([ops.filter_(edge, parse_term("#1.1 > 2")),
                            ops.projection(edge, [AttrRef(1, 2),
                                                  AttrRef(1, 1)])]),
        "FIX": closure,
    }


OPERATORS = ("SCAN", "SEARCH", "JOIN", "FILTER", "PROJECTION", "SEMIJOIN",
             "ANTIJOIN", "UNNEST", "NEST", "UNION", "FIX")


@pytest.mark.parametrize("operator", OPERATORS)
def test_row_budget_trips_at_the_same_row(graph, operator):
    """Degrade mode keeps the same truncated prefix and the same
    counters at the trip; the hard mode raises the same error -- for
    every budget from "trips in the first scan" to "never trips"."""
    plan = budget_plans(graph)[operator]
    whole = assert_same(graph.catalog, plan, budgets={})
    assert whole["rows"]
    truncated = 0
    for budget in range(0, whole["charged"] + 1):
        shown = assert_same(
            graph.catalog, plan,
            budgets={"row_budget": budget, "degrade": True,
                     "check_interval": 1})
        assert shown["error"] is None
        assert shown["stats"]["truncated"] == (
            budget < whole["charged"])
        truncated += shown["truncated"]
        hard = assert_same(graph.catalog, plan,
                           budgets={"row_budget": budget})
        assert (hard["error"] is None) == (budget >= whole["charged"])
    assert truncated == whole["charged"]


@pytest.mark.parametrize("operator", ("SEARCH", "FIX", "UNNEST"))
def test_memory_budget_and_cancellation_land_at_the_same_site(graph,
                                                              operator):
    plan = budget_plans(graph)[operator]
    whole = assert_same(graph.catalog, plan, budgets={})
    for nbytes in range(0, whole["memory"][1] + 64, 64):
        for degrade in (True, False):
            assert_same(graph.catalog, plan,
                        budgets={"memory_budget": nbytes,
                                 "degrade": degrade})
    # a deadline already passed: the first full check trips it (the
    # hard error's message carries the elapsed time, so degrade only)
    for interval in (1, 3, 1000):
        assert_same(graph.catalog, plan,
                    budgets={"timeout_ms": 0.0, "degrade": True,
                             "check_interval": interval})
