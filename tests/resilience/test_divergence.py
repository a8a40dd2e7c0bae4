"""Divergence detection: oscillation cycles and unbounded growth."""

import pytest

from repro.errors import RewriteError
from repro.resilience import ResiliencePolicy, TermHistory
from repro.rules.control import Block, RewriteEngine, Seq
from repro.rules.rule import RuleContext
from repro.terms.parser import parse_term

from tests.resilience.chaos import growing_rule, looping_pair, swap_rule


def engine(rules, policy, limit=None, **kwargs):
    return RewriteEngine(Seq([Block("b", rules, limit=limit)]),
                         resilience=policy, **kwargs)


class TestOscillation:
    def test_rule_pair_cycle_detected(self):
        e = engine(looping_pair(), ResiliencePolicy(), limit=1000)
        result = e.rewrite(parse_term("AAA(1)"), RuleContext())
        [report] = result.resilience.divergence
        assert report.kind == "oscillation"
        assert report.block == "b"
        assert report.cycle_length == 2
        assert set(report.rules) == {"to_bbb", "to_aaa"}
        # detected after two applications instead of burning the
        # 1000-application block budget
        assert result.applications == 2

    def test_self_inverse_rule_detected(self):
        e = engine([swap_rule()], ResiliencePolicy(), limit=500)
        result = e.rewrite(parse_term("PAIR(1, 2)"), RuleContext())
        [report] = result.resilience.divergence
        assert report.kind == "oscillation"
        assert report.rules == ("swap",)
        assert result.applications == 2

    def test_without_policy_the_safety_limit_catches_it(self):
        e = RewriteEngine(Seq([Block("b", looping_pair())]),
                          safety_limit=50)
        with pytest.raises(RewriteError):
            e.rewrite(parse_term("AAA(1)"), RuleContext())

    def test_other_blocks_still_run_after_a_halted_block(self):
        from repro.rules.rule import rule_from_text
        seq = Seq([
            Block("loops", looping_pair(), limit=1000),
            Block("works", [rule_from_text("fin: CCC(x) --> DDD(x)")]),
        ])
        e = RewriteEngine(seq, resilience=ResiliencePolicy())
        result = e.rewrite(parse_term("PAIR(AAA(1), CCC(2))"),
                           RuleContext())
        assert result.resilience.divergence[0].block == "loops"
        assert result.term == parse_term("PAIR(AAA(1), DDD(2))")


class TestGrowth:
    def test_unbounded_growth_halted(self):
        policy = ResiliencePolicy(growth_factor=2.0, growth_slack=4)
        e = engine([growing_rule()], policy)
        result = e.rewrite(parse_term("Q(Z)"), RuleContext())
        [report] = result.resilience.divergence
        assert report.kind == "growth"
        assert report.rules == ("grow",)
        assert "grew" in report.detail
        # Q(Z) is 2 nodes -> bound is 2*2+4 = 8 nodes
        assert result.applications < 10

    def test_legitimate_shrinking_is_untouched(self):
        from tests.resilience.chaos import shrink_rule
        e = engine([shrink_rule()], ResiliencePolicy())
        result = e.rewrite(parse_term("P(P(P(Z)))"), RuleContext())
        assert result.resilience.divergence == []
        assert result.term == parse_term("P(Z)")


class TestTermHistory:
    def test_no_false_positive_on_distinct_terms(self):
        history = TermHistory(parse_term("A(1)"))
        assert history.record(parse_term("A(2)"), "r") is None
        assert history.record(parse_term("A(3)"), "r") is None

    def test_repeat_is_reported_with_cycle_rules(self):
        history = TermHistory(parse_term("A(1)"))
        assert history.record(parse_term("A(2)"), "r1") is None
        assert history.record(parse_term("A(3)"), "r2") is None
        verdict = history.record(parse_term("A(2)"), "r3")
        kind, rules, length, detail = verdict
        assert kind == "oscillation"
        assert rules == ("r2", "r3")
        assert length == 2
        assert "A(2)" in detail

    def test_growth_bound(self):
        history = TermHistory(parse_term("Z"), growth_factor=1.0,
                              growth_slack=2)
        big = parse_term("Q(Q(Q(Z)))")
        kind, __, ___, detail = history.record(big, "grow")
        assert kind == "growth"
        assert "limit" in detail
