"""Fixpoint evaluation tests: naive vs semi-naive, linear vs non-linear."""

import pytest

from repro.adt.types import NUMERIC
from repro.engine.catalog import Catalog
from repro.engine.evaluate import Evaluator, evaluate
from repro.engine.stats import EvalStats
from repro.errors import EvaluationError
from repro.lera import ops
from repro.terms.parser import parse_term
from repro.terms.term import AttrRef, sym


def edge_catalog(edges):
    cat = Catalog()
    cat.define_table("EDGE", [("Src", NUMERIC), ("Dst", NUMERIC)])
    cat.insert_many("EDGE", edges)
    return cat


def right_linear_tc():
    return ops.fix("TC", ops.union([
        sym("EDGE"),
        ops.search([sym("EDGE"), sym("TC")], parse_term("#1.2 = #2.1"),
                   [AttrRef(1, 1), AttrRef(2, 2)]),
    ]))


def left_linear_tc():
    return ops.fix("TC", ops.union([
        sym("EDGE"),
        ops.search([sym("TC"), sym("EDGE")], parse_term("#1.2 = #2.1"),
                   [AttrRef(1, 1), AttrRef(2, 2)]),
    ]))


def non_linear_tc():
    return ops.fix("TC", ops.union([
        sym("EDGE"),
        ops.search([sym("TC"), sym("TC")], parse_term("#1.2 = #2.1"),
                   [AttrRef(1, 1), AttrRef(2, 2)]),
    ]))


def expected_closure(edges):
    """All (a, b) with a non-empty path a -> b (cycles give (a, a))."""
    out = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(out):
            for (c, d) in list(out):
                if b == c and (a, d) not in out:
                    out.add((a, d))
                    changed = True
    return out


CHAIN = [(i, i + 1) for i in range(1, 8)]
DIAMOND = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]
CYCLE = [(1, 2), (2, 3), (3, 1)]


class TestCorrectness:
    @pytest.mark.parametrize("edges", [CHAIN, DIAMOND, CYCLE],
                             ids=["chain", "diamond", "cycle"])
    @pytest.mark.parametrize("builder", [
        right_linear_tc, left_linear_tc, non_linear_tc,
    ], ids=["right", "left", "nonlinear"])
    @pytest.mark.parametrize("semi", [True, False],
                             ids=["seminaive", "naive"])
    def test_transitive_closure(self, edges, builder, semi):
        cat = edge_catalog(edges)
        result = Evaluator(cat, semi_naive=semi).evaluate(builder())
        assert set(result.rows) == expected_closure(edges)

    def test_empty_base(self):
        cat = edge_catalog([])
        result = evaluate(right_linear_tc(), cat)
        assert result.rows == []

    def test_cycle_terminates(self):
        cat = edge_catalog(CYCLE)
        result = evaluate(non_linear_tc(), cat)
        assert (1, 1) in set(result.rows)  # back to itself through the cycle


class TestSemiNaiveAdvantage:
    def test_less_work_on_chains(self):
        cat = edge_catalog([(i, i + 1) for i in range(1, 20)])
        naive, semi = EvalStats(), EvalStats()
        Evaluator(cat, stats=naive, semi_naive=False).evaluate(
            left_linear_tc()
        )
        Evaluator(cat, stats=semi, semi_naive=True).evaluate(
            left_linear_tc()
        )
        assert semi.total_work < naive.total_work

    def test_same_rows_both_modes(self):
        cat = edge_catalog(DIAMOND)
        a = Evaluator(cat, semi_naive=False).evaluate(non_linear_tc())
        b = Evaluator(cat, semi_naive=True).evaluate(non_linear_tc())
        assert set(a.rows) == set(b.rows)

    def test_nonlinear_converges_in_fewer_rounds(self):
        """Non-linear TC doubles path length per round."""
        cat = edge_catalog([(i, i + 1) for i in range(1, 33)])
        lin, nonlin = EvalStats(), EvalStats()
        Evaluator(cat, stats=lin).evaluate(right_linear_tc())
        Evaluator(cat, stats=nonlin).evaluate(non_linear_tc())
        assert nonlin.fix_iterations < lin.fix_iterations


class TestGuards:
    def test_iteration_guard(self):
        cat = edge_catalog(CHAIN)
        ev = Evaluator(cat, max_fix_iterations=2)
        with pytest.raises(EvaluationError):
            ev.evaluate(right_linear_tc())

    def test_nested_fixpoints(self):
        """A fixpoint over a relation produced by another fixpoint."""
        cat = edge_catalog([(1, 2), (2, 3)])
        inner = right_linear_tc()
        outer = ops.fix("UP", ops.union([
            inner,
            ops.search([sym("UP"), inner], parse_term("#1.2 = #2.1"),
                       [AttrRef(1, 1), AttrRef(2, 2)]),
        ]))
        result = evaluate(outer, cat)
        assert set(result.rows) == expected_closure([(1, 2), (2, 3)])


class TestDeltaVariants:
    """The semi-naive variant builder rebuilds only the path down to
    the occurrence it replaces, yet builds the very variants the
    per-row interpreter's copy (the oracle) builds."""

    @staticmethod
    def fix_branches(plan):
        from repro.terms.term import is_fun, walk
        for node in walk(plan):
            if is_fun(node, "FIX"):
                rel_const, body = node.args
                branches = (ops.relation_inputs(body)
                            if is_fun(body, "UNION") else [body])
                for branch in branches:
                    yield str(rel_const.value), branch

    def test_variants_equal_the_oracles_on_generated_and_perf_plans(self):
        from benchmarks.perf import workloads
        from benchmarks.perf.measure import load
        from repro import Database
        from repro.engine.evaluate import _replace_nth_symbol
        from repro.terms.term import mentions
        from tests.engine import reference_evaluator as reference
        from tests.generated_plans import generated_queries

        plans = [right_linear_tc(), left_linear_tc(), non_linear_tc()]
        plans += [db.optimize(query).final
                  for db, query in generated_queries()]
        workload = workloads.build("recursive_view", 7, 0.1)
        db = Database()
        load(db, workload)
        plans += [db.optimize(text).final for text in sorted(
            {s.text for s in workload.statements if s.kind == "read"})]
        compared = 0
        for plan in plans:
            for name, branch in self.fix_branches(plan):
                delta = name + "$DELTA"
                for n in range(mentions(branch).get(name, 0)):
                    assert (_replace_nth_symbol(branch, name, n, delta)
                            == reference._replace_nth_symbol(
                                branch, name, n, delta)), (branch, n)
                    compared += 1
        assert compared >= 85
