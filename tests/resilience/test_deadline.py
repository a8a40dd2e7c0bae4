"""The statement's deadline cuts the rewrite: graceful degradation,
never an error."""

from repro.engine.evaluate import Evaluator
from repro.engine.options import StatementOptions
from repro.lifecycle.context import QueryContext, use_context
from repro.rules.control import Block, RewriteEngine, Seq
from repro.rules.rule import RuleContext
from repro.terms.parser import parse_term

from tests.resilience.chaos import (SlowRule, sale_db, shrink_rule,
                                    SALE_QUERY)


def rewrite(rules, term, timeout_ms):
    """Rewrite ``term`` with one block of ``rules`` inside a statement
    whose deadline is ``timeout_ms`` away."""
    engine = RewriteEngine(Seq([Block("b", rules)]))
    with use_context(QueryContext(timeout_ms=timeout_ms)):
        return engine.rewrite(term, RuleContext())


class TestDeadline:
    def test_expired_deadline_keeps_the_input_term(self):
        deep = parse_term("P(P(P(Z)))")
        result = rewrite([shrink_rule()], deep, timeout_ms=0.0)
        assert result.degraded is True
        assert result.degraded_reason == "deadline"
        assert result.term == deep
        assert result.applications == 0

    def test_deadline_interrupts_mid_block(self):
        # each application sleeps well past the deadline, so the
        # cooperative check stops the block after the first one
        result = rewrite([SlowRule(shrink_rule(), delay_s=0.02)],
                         parse_term("P(P(P(P(Z))))"), timeout_ms=5.0)
        assert result.degraded is True
        assert result.degraded_reason == "deadline"
        assert 1 <= result.applications < 3
        # best-so-far: strictly between the input and the fixpoint
        assert result.term != parse_term("P(P(P(P(Z))))")
        assert result.term != parse_term("P(Z)")

    def test_degradation_flows_into_explain_json(self):
        db = sale_db(resilient=True, statement_timeout_ms=0.0)
        report = db.explain_json(SALE_QUERY)
        assert report["rewrite"]["degraded"] is True
        assert report["resilience"]["degraded_reason"] == "deadline"

    def test_optimize_deadline_argument(self):
        db = sale_db()
        optimized = db.optimize(
            SALE_QUERY, options=StatementOptions(timeout_ms=0.0))
        assert optimized.degraded is True
        assert optimized.rewrite_result.degraded_reason == "deadline"
        assert optimized.resilience is None
        # degraded, not broken: the best-so-far plan still answers
        rows = Evaluator(db.catalog).evaluate(optimized.final).rows
        assert sorted(rows) == [(15,), (25,), (40,)]
        unconstrained = db.optimize(SALE_QUERY)
        assert unconstrained.degraded is False
        assert unconstrained.resilience is None
