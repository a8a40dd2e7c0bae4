"""Block-budget edge cases and the safety-limit diagnostic."""

import pytest

from repro.errors import RewriteError
from repro.rules.control import Block, RewriteEngine, Seq
from repro.rules.rule import RuleContext, rule_from_text
from repro.terms.parser import parse_term

SHRINK = rule_from_text("shrink: P(P(x)) --> P(x)")
GROW = rule_from_text("grow: Q(x) --> Q(P(x))")
# same root and inner symbols as SHRINK, one level deeper: it reaches
# the matcher (and so consumes a condition check) at every P(P(...))
# position without matching P(P(Z)).  (A decoy like P(Q(x)) is turned
# away by the symbol test before it costs a check.)
DECOY = rule_from_text("decoy: P(P(P(x))) --> x")


def engine_for(rules, limit=None, passes=1, count="applications",
               **kwargs):
    block = Block("b", rules, limit=limit, count=count)
    return RewriteEngine(Seq([block], passes=passes), **kwargs)


class TestZeroBudgets:
    def test_zero_limit_applications(self):
        engine = engine_for([SHRINK], limit=0)
        deep = parse_term("P(P(Z))")
        result = engine.rewrite(deep, RuleContext())
        assert result.term == deep
        assert result.applications == 0
        assert result.checks == 0  # the block never even scanned

    def test_zero_limit_checks(self):
        engine = engine_for([SHRINK], limit=0, count="checks")
        deep = parse_term("P(P(Z))")
        result = engine.rewrite(deep, RuleContext())
        assert result.term == deep
        assert result.checks == 0

    def test_seq_zero_passes(self):
        engine = engine_for([SHRINK], passes=0)
        deep = parse_term("P(P(Z))")
        result = engine.rewrite(deep, RuleContext())
        assert result.term == deep
        assert result.passes == 0
        assert result.applications == 0


class TestChecksBudgetMidScan:
    def test_scan_aborts_when_checks_run_out(self):
        # the decoy burns the single check at the root; shrink would
        # need a second one, which the budget no longer covers
        engine = engine_for([DECOY, SHRINK], limit=1, count="checks")
        deep = parse_term("P(P(Z))")
        result = engine.rewrite(deep, RuleContext())
        assert result.term == deep
        assert result.applications == 0
        assert result.checks == 2  # the aborting check is still counted

    def test_exact_budget_still_applies(self):
        engine = engine_for([DECOY, SHRINK], limit=2, count="checks")
        result = engine.rewrite(parse_term("P(P(Z))"), RuleContext())
        # two checks: decoy misses, shrink fires on the second
        assert result.term == parse_term("P(Z)")
        assert result.applications == 1

    def test_budget_spent_by_fruitless_rescans(self):
        # after the only shrink fires, a re-scan costs checks but
        # finds nothing; the block must stop without looping
        engine = engine_for([SHRINK], limit=10, count="checks")
        result = engine.rewrite(parse_term("P(P(Z))"), RuleContext())
        assert result.term == parse_term("P(Z)")
        assert result.applications == 1


class TestWithLimitRoundTrips:
    def test_round_trip_preserves_everything_else(self):
        block = Block("b", [SHRINK], limit=None, count="checks")
        back = block.with_limit(3).with_limit(None)
        assert back.limit is None
        assert back.count == "checks"
        assert back.name == "b"
        assert back.rules == [SHRINK]

    def test_with_limit_does_not_mutate_the_original(self):
        block = Block("b", [SHRINK], limit=7)
        capped = block.with_limit(0)
        assert block.limit == 7
        assert capped.limit == 0

    def test_round_trip_behaviour_identical(self):
        original = Block("b", [SHRINK], limit=2)
        round_tripped = original.with_limit(99).with_limit(2)
        deep = parse_term("P(P(P(P(Z))))")
        a = RewriteEngine(Seq([original])).rewrite(deep, RuleContext())
        b = RewriteEngine(Seq([round_tripped])).rewrite(deep,
                                                        RuleContext())
        assert a.term == b.term
        assert a.applications == b.applications == 2


class TestSafetyLimitDiagnostic:
    def test_error_names_rule_block_and_term(self):
        engine = engine_for([GROW], safety_limit=5)
        with pytest.raises(RewriteError) as excinfo:
            engine.rewrite(parse_term("Q(Z)"), RuleContext())
        message = str(excinfo.value)
        assert "safety limit of 5" in message
        assert "'grow'" in message
        assert "'b'" in message
        assert "Q(" in message  # a printer snapshot of the term

    def test_snapshot_is_truncated(self):
        wide = rule_from_text(
            "widen: W(x) --> W(PAD(x, AAAAAAAAAAAAAAAAAAAAAAAA))"
        )
        engine = engine_for([wide], safety_limit=20)
        with pytest.raises(RewriteError) as excinfo:
            engine.rewrite(parse_term("W(Z)"), RuleContext())
        # the embedded snapshot stays bounded
        assert len(str(excinfo.value)) < 600
        assert "..." in str(excinfo.value)
