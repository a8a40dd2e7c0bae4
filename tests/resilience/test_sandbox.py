"""Rule sandboxing: bad rules are quarantined, not fatal."""

import pytest

from repro.errors import RuleError
from repro.resilience import ResiliencePolicy
from repro.rules.control import Block, RewriteEngine, Seq
from repro.rules.rule import RuleContext
from repro.terms.parser import parse_term

from tests.resilience.chaos import (AlwaysRaisingRule, FlakyRule, sale_db,
                                    shrink_rule, SALE_QUERY)


def engine(rules, policy, **kwargs):
    return RewriteEngine(Seq([Block("b", rules)]), resilience=policy,
                         **kwargs)


class TestSandbox:
    def test_raising_rule_does_not_abort_the_rewrite(self):
        e = engine([AlwaysRaisingRule(), shrink_rule()],
                   ResiliencePolicy())
        result = e.rewrite(parse_term("P(P(P(Z)))"), RuleContext())
        assert result.term == parse_term("P(Z)")
        assert result.applications == 2

    def test_failures_recorded_structurally(self):
        e = engine([AlwaysRaisingRule(message="kaput"), shrink_rule()],
                   ResiliencePolicy(failure_threshold=100))
        result = e.rewrite(parse_term("P(P(Z))"), RuleContext())
        failures = result.resilience.rule_failures
        assert failures
        first = failures[0]
        assert first.rule == "bomb"
        assert first.block == "b"
        assert first.error == "RuleError"
        assert "kaput" in first.message
        assert first.as_dict()["path"] == []

    def test_quarantine_at_threshold(self):
        bomb = AlwaysRaisingRule()
        e = engine([bomb, shrink_rule()],
                   ResiliencePolicy(failure_threshold=1))
        result = e.rewrite(parse_term("P(P(P(Z)))"), RuleContext())
        assert result.resilience.quarantined == ["bomb"]
        # quarantined after its first failure: never attempted again
        assert bomb.attempts == 1
        assert result.term == parse_term("P(Z)")

    def test_below_threshold_not_quarantined(self):
        flaky = FlakyRule(failures=2)
        e = engine([flaky, shrink_rule()],
                   ResiliencePolicy(failure_threshold=3))
        result = e.rewrite(parse_term("P(P(Z))"), RuleContext())
        assert len(result.resilience.rule_failures) == 2
        assert result.resilience.quarantined == []
        assert result.term == parse_term("P(Z)")

    def test_non_repro_exceptions_are_sandboxed_too(self):
        e = engine([AlwaysRaisingRule(error_type=ValueError),
                    shrink_rule()], ResiliencePolicy())
        result = e.rewrite(parse_term("P(P(Z))"), RuleContext())
        assert result.term == parse_term("P(Z)")
        assert result.resilience.rule_failures[0].error == "ValueError"

    def test_without_policy_the_exception_propagates(self):
        e = engine([AlwaysRaisingRule(), shrink_rule()], None)
        with pytest.raises(RuleError):
            e.rewrite(parse_term("P(P(Z))"), RuleContext())

    def test_sandbox_can_be_disabled_by_policy(self):
        e = engine([AlwaysRaisingRule(), shrink_rule()],
                   ResiliencePolicy(sandbox=False))
        with pytest.raises(RuleError):
            e.rewrite(parse_term("P(P(Z))"), RuleContext())


class TestEndToEnd:
    """The acceptance shape: an injected always-raising rule inside the
    standard pipeline completes, quarantines, and surfaces in
    explain_json()['resilience']."""

    def test_explain_json_lists_the_failure(self):
        db = sale_db(resilient=True)
        bomb = AlwaysRaisingRule()
        db.optimizer.rewriter.add_rule(bomb, "simplify")
        report = db.explain_json(SALE_QUERY)
        resilience = report["resilience"]
        assert resilience is not None
        assert any(f["rule"] == "bomb"
                   for f in resilience["rule_failures"])
        assert "bomb" in resilience["quarantined"]
        # the rewrite itself still did its job
        assert report["plans"]["after"]["nodes"] < \
            report["plans"]["before"]["nodes"]

    def test_query_results_survive_the_bad_rule(self):
        db = sale_db(resilient=True)
        db.optimizer.rewriter.add_rule(AlwaysRaisingRule(), "simplify")
        rows = sorted(db.query(SALE_QUERY).rows)
        assert rows == [(15,), (25,), (40,)]

    def test_profiler_counts_failures(self):
        from repro.obs.profile import Profiler
        db = sale_db(resilient=True)
        db.optimizer.rewriter.add_rule(AlwaysRaisingRule(), "simplify")
        profiler = Profiler()
        db.optimize(SALE_QUERY, obs=profiler.bus)
        counters = profiler.metrics.snapshot()["counters"]
        assert counters["resilience.rule_failures"] >= 1
        assert counters["resilience.quarantined"] == 1


class TestExplainTextResilienceSection:
    """``db.explain``'s ``== resilience ==`` section: rendered only
    under a policy, and only when something noteworthy happened."""

    def test_checked_explain_names_failures_bench_and_rollback(self):
        from tests.resilience.chaos import bad_comparison_rule
        db = sale_db()
        db.optimizer.rewriter.add_rule(AlwaysRaisingRule(), "simplify")
        db.optimizer.rewriter.add_rule(bad_comparison_rule(), "simplify")
        text = db.explain(SALE_QUERY, checked=True)
        section = text.split("== resilience ==\n")[1].splitlines()
        failure = ("  rule failure: bomb in simplify "
                   "(RuleError: injected failure)")
        assert section.count(failure) == 3  # the quarantine threshold
        assert "  quarantined: bomb, bad_cmp" in section
        assert "  checked: 2 validation(s), 1 rollback(s)" in section
        (rolled_back,) = [line for line in section
                          if line.startswith("    rolled back")]
        assert rolled_back.startswith(
            "    rolled back simplify: results diverge")
        assert not any("degraded" in line for line in section)

    def test_exhausted_rewrite_budget_reads_degraded(self):
        text = sale_db().explain(SALE_QUERY, deadline_ms=1e-9)
        assert text.endswith(
            "== resilience ==\n"
            "  degraded: best-so-far plan (deadline exhausted)")

    def test_silent_without_a_policy_or_without_news(self):
        assert "== resilience ==" not in sale_db().explain(SALE_QUERY)
        quiet = sale_db(resilient=True).explain(SALE_QUERY)
        assert "== resilience ==" not in quiet
