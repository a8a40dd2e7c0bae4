"""F8 -- Figure 8 permutation rules: push searches toward the data."""

import pytest

from repro.adt.types import CHAR, NUMERIC
from repro.engine.catalog import Catalog
from repro.engine.evaluate import Evaluator, evaluate
from repro.engine.stats import EvalStats
from repro.lera import ops
from repro.rules.control import Block, RewriteEngine, Seq
from repro.rules.rule import RuleContext
from repro.rules.syntactic import (canonicalization_rules, merging_rules,
                                   permutation_rules)
from repro.terms.parser import parse_term
from repro.terms.printer import term_to_str
from repro.terms.term import is_fun


@pytest.fixture
def cat():
    c = Catalog()
    c.define_table("OLD_EDGE", [("Src", NUMERIC), ("Dst", NUMERIC)])
    c.define_table("NEW_EDGE", [("Src", NUMERIC), ("Dst", NUMERIC)])
    c.insert_many("OLD_EDGE", [(1, 2), (2, 3), (5, 6)])
    c.insert_many("NEW_EDGE", [(1, 9), (7, 8)])
    c.define_table("SALE", [("Shop", NUMERIC), ("Amount", NUMERIC)])
    c.insert_many("SALE", [(1, 10), (1, 20), (2, 30), (3, 40), (3, 5)])
    return c


def push_engine():
    return RewriteEngine(Seq([
        Block("push", permutation_rules()),
        Block("merge", merging_rules() + canonicalization_rules()),
    ], passes=2))


def rewrite(term, cat):
    return push_engine().rewrite(term, RuleContext(catalog=cat))


def union_push_fired(result):
    return [name for name in result.rules_fired()
            if name == "search_union_push"]


def bag(term, cat):
    return sorted(evaluate(term, cat).rows)


class TestSearchThroughUnion:
    """The union is a set and its consumers may be bags: only the
    selection moves below it, the projection and the other inputs of
    the search stay above (the shape of search_distinct_push)."""

    def test_selection_distributes(self, cat):
        t = parse_term(
            "SEARCH(LIST(UNION(SET(OLD_EDGE, NEW_EDGE))), "
            "#1.1 = 1, LIST(#1.2))"
        )
        result = rewrite(t, cat)
        assert union_push_fired(result) == ["search_union_push"]
        # the outer search keeps its projection over the union...
        assert term_to_str(result.term) == (
            "SEARCH(LIST(UNION(SET("
            "SEARCH(LIST(NEW_EDGE), 1 = #1.1, LIST(#1.1, #1.2)), "
            "SEARCH(LIST(OLD_EDGE), 1 = #1.1, LIST(#1.1, #1.2))))), "
            "true, LIST(#1.2))"
        )

    def test_equivalence(self, cat):
        t = parse_term(
            "SEARCH(LIST(UNION(SET(OLD_EDGE, NEW_EDGE))), "
            "#1.1 = 1, LIST(#1.2))"
        )
        assert bag(t, cat) == bag(rewrite(t, cat).term, cat)

    def test_narrow_projection_keeps_duplicates(self, cat):
        """ROADMAP 0a: (1, 2) and (1, 9) are two union tuples that
        project onto the same Src; lifting the union above the
        projection used to merge them."""
        t = parse_term(
            "SEARCH(LIST(UNION(SET(OLD_EDGE, NEW_EDGE))), "
            "#1.1 = 1, LIST(#1.1))"
        )
        pushed = rewrite(t, cat).term
        assert bag(t, cat) == bag(pushed, cat) == [(1,), (1,)]

    def test_three_branch_union_fully_split(self, cat):
        t = parse_term(
            "SEARCH(LIST(UNION(SET(OLD_EDGE, NEW_EDGE, "
            "SEARCH(LIST(SALE), #1.1 > 2, LIST(#1.1, #1.2))))), "
            "#1.2 > 1, LIST(#1.1))"
        )
        result = rewrite(t, cat)
        # one application reaches every branch: each is a search over
        # a stored relation carrying the selection
        assert len(union_push_fired(result)) == 1
        (union,), qualification, __ = ops.search_parts(result.term)
        assert term_to_str(qualification) == "true"
        branches = ops.relation_inputs(union)
        assert len(branches) == 3
        for branch in branches:
            inputs, pushed, ___ = ops.search_parts(branch)
            assert ops.is_relation_name(inputs[0])
            assert "#1.2 > 1" in term_to_str(pushed)
        assert bag(t, cat) == bag(result.term, cat)

    def test_union_with_join_partner(self, cat):
        # the union is one input of a two-input search: only the
        # conjunct on the union moves, the join stays above
        t = parse_term(
            "SEARCH(LIST(UNION(SET(OLD_EDGE, NEW_EDGE)), OLD_EDGE), "
            "#1.2 = #2.1 AND #1.1 = 1, LIST(#1.1, #2.2))"
        )
        result = rewrite(t, cat)
        assert union_push_fired(result) == ["search_union_push"]
        inputs, qualification, __ = ops.search_parts(result.term)
        assert is_fun(inputs[0], "UNION")
        assert term_to_str(qualification) == "#1.2 = #2.1"
        assert bag(t, cat) == bag(result.term, cat)

    def test_join_partner_duplicates_survive(self, cat):
        """The join form of ROADMAP 0a: the partner's duplicates
        multiply the union's tuples and must not be deduplicated."""
        cat.insert_many("OLD_EDGE", [(2, 3)])
        t = parse_term(
            "SEARCH(LIST(UNION(SET(OLD_EDGE, NEW_EDGE)), OLD_EDGE), "
            "#1.2 = #2.1 AND #1.1 = 1, LIST(#1.1))"
        )
        pushed = rewrite(t, cat).term
        assert bag(t, cat) == bag(pushed, cat) == [(1,), (1,)]

    def test_join_only_qualification_does_not_fire(self, cat):
        t = parse_term(
            "SEARCH(LIST(UNION(SET(OLD_EDGE, NEW_EDGE)), OLD_EDGE), "
            "#1.2 = #2.1, LIST(#1.1, #2.2))"
        )
        assert union_push_fired(rewrite(t, cat)) == []

    def test_pushdown_reduces_work(self, cat):
        # enlarge one branch so filtering early matters
        cat.insert_many("OLD_EDGE", [(50 + i, 50 + i) for i in range(50)])
        t = parse_term(
            "SEARCH(LIST(UNION(SET(OLD_EDGE, NEW_EDGE)), OLD_EDGE), "
            "#1.2 = #2.1 AND #1.1 = 1, LIST(#1.1, #2.2))"
        )
        pushed = rewrite(t, cat).term
        assert bag(t, cat) == bag(pushed, cat)
        # the union deduplicates the two selected tuples, not all 55
        (plain_union, __), ___, ____ = ops.search_parts(t)
        (pushed_union, __), ___, ____ = ops.search_parts(pushed)
        assert len(evaluate(plain_union, cat).rows) == 55
        assert len(evaluate(pushed_union, cat).rows) == 2


class TestSearchThroughNest:
    def nest_term(self):
        # NEST the sales per shop, then select a shop upstream
        return parse_term(
            "SEARCH(LIST(NEST(SALE, LIST(#1.2), "
            "LIST('Amounts', SET))), #1.1 = 3, LIST(#1.1, #1.2))"
        )

    def test_conjunct_on_kept_attribute_pushes(self, cat):
        result = rewrite(self.nest_term(), cat)
        fired = result.rules_fired()
        assert "search_nest_push_all" in fired or \
            "search_nest_push" in fired
        # the NEST input became a search
        assert "NEST(SEARCH" in term_to_str(result.term).replace(" ", "")

    def test_equivalence_after_nest_push(self, cat):
        t = self.nest_term()
        pushed = rewrite(t, cat).term
        assert set(evaluate(t, cat).rows) == \
            set(evaluate(pushed, cat).rows)

    def test_condition_on_nested_attribute_blocks_push(self, cat):
        t = parse_term(
            "SEARCH(LIST(NEST(SALE, LIST(#1.2), "
            "LIST('Amounts', SET))), MEMBER(30, #1.2), LIST(#1.1))"
        )
        result = rewrite(t, cat)
        assert "search_nest_push" not in result.rules_fired()
        assert "search_nest_push_all" not in result.rules_fired()

    def test_mixed_qualification_splits(self, cat):
        # one pushable conjunct, one on the nested collection
        t = parse_term(
            "SEARCH(LIST(NEST(SALE, LIST(#1.2), "
            "LIST('Amounts', SET))), "
            "#1.1 = 1 AND MEMBER(10, #1.2), LIST(#1.1))"
        )
        result = rewrite(t, cat)
        assert "search_nest_push" in result.rules_fired()
        pushed = result.term
        assert set(evaluate(t, cat).rows) == \
            set(evaluate(pushed, cat).rows)
        # the nested-attribute conjunct stays above the NEST
        outer_qual = term_to_str(pushed.args[1])
        assert "MEMBER" in outer_qual

    def test_push_reduces_nest_input(self, cat):
        t = self.nest_term()
        pushed = rewrite(t, cat).term
        plain, opt = EvalStats(), EvalStats()
        Evaluator(cat, stats=plain).evaluate(t)
        Evaluator(cat, stats=opt).evaluate(pushed)
        assert opt.tuples_output <= plain.tuples_output


class TestSetOperatorPush:
    @pytest.fixture
    def setop_cat(self):
        c = Catalog()
        c.define_table("A1", [("X", NUMERIC), ("Y", NUMERIC)])
        c.define_table("B1", [("X", NUMERIC), ("Y", NUMERIC)])
        c.insert_many("A1", [(i, i % 5) for i in range(20)])
        c.insert_many("B1", [(i, i % 5) for i in range(0, 20, 2)])
        return c

    def test_difference_push(self, setop_cat):
        t = parse_term(
            "SEARCH(LIST(DIFFERENCE(A1, B1)), #1.2 = 3, LIST(#1.1))"
        )
        result = rewrite(t, setop_cat)
        assert "search_diff_push" in result.rules_fired()
        assert set(evaluate(t, setop_cat).rows) == \
            set(evaluate(result.term, setop_cat).rows)

    def test_intersection_push(self, setop_cat):
        t = parse_term(
            "SEARCH(LIST(INTERSECTION(SET(A1, B1))), #1.2 = 3, "
            "LIST(#1.1))"
        )
        result = rewrite(t, setop_cat)
        assert "search_intersect_push" in result.rules_fired()
        assert set(evaluate(t, setop_cat).rows) == \
            set(evaluate(result.term, setop_cat).rows)

    def test_push_does_not_loop(self, setop_cat):
        t = parse_term(
            "SEARCH(LIST(DIFFERENCE(A1, B1)), #1.2 = 3, LIST(#1.1))"
        )
        result = rewrite(t, setop_cat)
        assert result.rules_fired().count("search_diff_push") == 1

    def test_true_qualification_not_pushed(self, setop_cat):
        t = parse_term(
            "SEARCH(LIST(DIFFERENCE(A1, B1)), true, LIST(#1.1))"
        )
        result = rewrite(t, setop_cat)
        assert "search_diff_push" not in result.rules_fired()
