"""The differential oracle and the delta-debugging shrinker.

An *unsound oracle* -- a subclass whose databases carry a deliberately
broken rule -- gives the tests a deterministic source of real
divergences to detect, localize and shrink.
"""

from random import Random

import pytest

from repro.qa.oracle import DifferentialOracle, Divergence, result_bag
from repro.qa.query_gen import QuerySpec
from repro.qa.schema_gen import Case, TableSpec
from repro.qa.shrink import shrink_case
from repro.rules.rule import rule_from_text

BAD_RULE = "bad_gt_widen: x > y / --> x >= y /"


class UnsoundOracle(DifferentialOracle):
    """An oracle whose databases include a rule that widens ``>``."""

    def build_db(self, case):
        db = super().build_db(case)
        db.optimizer.rewriter.add_rule(
            rule_from_text(BAD_RULE), block="simplify"
        )
        db.regenerate_optimizer = lambda: None  # keep the planted rule
        return db


# search_union_push as it shipped from PR 11 to PR 20 (ROADMAP item 0a):
# it lifts the set-UNION above the projection and the other inputs
PRE_FIX_UNION_PUSH = (
    "search_union_push: "
    "SEARCH(LIST(x*, UNION(SET(u, v*)), y*), f, a) / NONEMPTY(v*) "
    "--> UNION(SET("
    "SEARCH(APPEND(x*, LIST(u), y*), f, a), "
    "SEARCH(LIST(x*, UNION(SET(v*)), y*), f, a))) /"
)


class PreFixUnionPushOracle(DifferentialOracle):
    """An oracle whose databases run the pre-fix union-push rule."""

    def build_db(self, case):
        db = super().build_db(case)
        push = db.optimizer.rewriter.block("push")
        push.rules[:] = [rule_from_text(PRE_FIX_UNION_PUSH)] + [
            rule for rule in push.rules
            if rule.name != "search_union_push"
        ]
        db.regenerate_optimizer = lambda: None  # keep the planted rule
        return db


def _case(rows=((1, 5), (2, 6), (3, 7)),
          query="SELECT A FROM T WHERE A > 1") -> Case:
    return Case(
        tables=(TableSpec(name="T",
                          columns=(("A", "INT"), ("B", "INT")),
                          key=(), rows=tuple(rows)),),
        query=query,
    )


class TestResultBag:
    def test_bags_catch_multiplicity(self):
        assert result_bag([(1,), (1,)]) != result_bag([(1,)])
        assert set([(1,), (1,)]) == set([(1,)])  # what sets would miss

    def test_unhashable_falls_back_to_repr(self):
        rows = [([1, 2],), ([1, 2],)]
        assert result_bag(rows) == result_bag(list(rows))


class TestOracle:
    def test_sound_case_has_no_divergence(self):
        assert DifferentialOracle().check(_case()) is None

    def test_unsound_rule_is_detected(self):
        divergence = UnsoundOracle(check_subsets=False).check(_case())
        assert divergence is not None
        assert divergence.mode == "rewrite"
        assert "row(s)" in divergence.detail

    def test_reproduces_pins_the_mode_family(self):
        oracle = UnsoundOracle(check_subsets=False)
        assert oracle.reproduces(_case(), "rewrite")
        assert oracle.reproduces(_case(), None)
        assert not oracle.reproduces(_case(), "tier")

    def test_broken_setup_is_not_a_repro(self):
        broken = Case(tables=(), query="SELECT X FROM NOWHERE")
        assert not UnsoundOracle(check_subsets=False).reproduces(broken)


class TestShrink:
    def test_rows_shrink_to_the_witness(self):
        oracle = UnsoundOracle(check_subsets=False)
        shrunk = shrink_case(_case(), oracle, mode="rewrite")
        # only a row with A exactly at the boundary (A = 1, excluded
        # by > but included by >=) witnesses the widening
        assert len(shrunk.tables[0].rows) < 3
        assert oracle.reproduces(shrunk, "rewrite")

    def test_query_reductions_drop_noise(self):
        oracle = UnsoundOracle(check_subsets=False)
        spec = QuerySpec(
            select=("A",), tables=("T",),
            where=("A > 1", "B <> 0"), distinct=False,
            union=QuerySpec(select=("A",), tables=("T",),
                            where=("A = 2",)),
        )
        case = _case(query=spec.sql())
        assert oracle.reproduces(case, "rewrite")
        shrunk = shrink_case(case, oracle, spec=spec, mode="rewrite")
        assert "UNION" not in shrunk.query
        assert "B <> 0" not in shrunk.query
        assert oracle.reproduces(shrunk, "rewrite")

    def test_sound_case_returns_unchanged(self):
        case = _case()
        assert shrink_case(case, DifferentialOracle()) == case
