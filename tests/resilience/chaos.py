"""Fault-injection harness for the resilience suite.

Every fixture here is a *hostile extension*: something a database
administrator could install through the section 4 extensibility
surface that today's engine would have to survive.  The rule objects
are duck-typed against :class:`~repro.rules.rule.RewriteRule` (the
engine only touches ``name``, ``quick_applicable`` and ``apply``), so
a fixture can fail in ways the rule compiler would never produce.

Used by ``tests/resilience/*``, ``tests/lifecycle``, ``tests/rules`` and
``tests/server``.
"""

from __future__ import annotations

import time

from repro.engine.database import Database
from repro.errors import RuleError
from repro.rules.rule import rule_from_text

__all__ = [
    "AlwaysRaisingRule", "FlakyRule", "SlowRule", "StallingRule",
    "looping_pair", "swap_rule", "growing_rule", "shrink_rule",
    "bad_comparison_rule", "sale_db", "SALE_QUERY",
]


class AlwaysRaisingRule:
    """A rule whose application always raises (a buggy extension)."""

    def __init__(self, name: str = "bomb",
                 error_type: type = RuleError,
                 message: str = "injected failure"):
        self.name = name
        self.error_type = error_type
        self.message = message
        self.attempts = 0

    def quick_applicable(self, subject) -> bool:
        return True

    def apply(self, subject, ctx):
        self.attempts += 1
        raise self.error_type(self.message)


class FlakyRule:
    """Raises on its first ``failures`` attempts, then stops matching.

    Models a rule with a data-dependent bug: below the quarantine
    threshold it must merely be stepped over, at the threshold it must
    be quarantined.
    """

    def __init__(self, name: str = "flaky", failures: int = 2):
        self.name = name
        self.failures = failures
        self.attempts = 0

    def quick_applicable(self, subject) -> bool:
        return True

    def apply(self, subject, ctx):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise RuleError(f"flaky failure #{self.attempts}")
        return None


class SlowRule:
    """Wraps a compiled rule with a per-application sleep, to exercise
    the cooperative deadline without depending on workload size."""

    def __init__(self, inner, delay_s: float = 0.005):
        self.inner = inner
        self.name = inner.name
        self.delay_s = delay_s

    def quick_applicable(self, subject) -> bool:
        return self.inner.quick_applicable(subject)

    def apply(self, subject, ctx):
        time.sleep(self.delay_s)
        return self.inner.apply(subject, ctx)


class StallingRule:
    """Never matches, and takes ``delay_s`` to say so at every position
    it is offered: a rewrite that is slow while firing nothing (a
    condition that calls out to something expensive)."""

    def __init__(self, name: str = "stall", delay_s: float = 0.02):
        self.name = name
        self.delay_s = delay_s
        self.attempts = 0

    def quick_applicable(self, subject) -> bool:
        return True

    def apply(self, subject, ctx):
        self.attempts += 1
        time.sleep(self.delay_s)
        return None


def shrink_rule():
    return rule_from_text("shrink: P(P(x)) --> P(x)")


def looping_pair():
    """Two rules that undo each other: A -> B -> A forever."""
    return [
        rule_from_text("to_bbb: AAA(x) --> BBB(x)"),
        rule_from_text("to_aaa: BBB(x) --> AAA(x)"),
    ]


def swap_rule():
    """A single self-inverse rule: PAIR(a, b) -> PAIR(b, a) -> ..."""
    return rule_from_text("swap: PAIR(x, y) --> PAIR(y, x)")


def growing_rule():
    """Strictly growing, never repeating: defeats cycle detection and
    must be caught by the growth bound instead."""
    return rule_from_text("grow: Q(x) --> Q(P(x))")


def bad_comparison_rule():
    """A result-changing rewrite: weakens any ``x > y`` conjunct to
    ``true``.  Syntactically a perfectly plausible 'simplification';
    only checked mode can refute it."""
    return rule_from_text("bad_cmp: x > y / --> true /")


# Goes through the BIG view on purpose: the translator inlines the view
# definition, so the typed term is a nested SEARCH that the rewrite
# rules genuinely have work to do on (merge, then simplify).  A direct
# base-table query would already be in canonical form and no rule would
# ever fire, which defeats every end-to-end resilience scenario.
SALE_QUERY = "SELECT Amount FROM BIG"


def sale_db(**kwargs) -> Database:
    """The small workload shared by the chaos tests."""
    db = Database(**kwargs)
    db.execute("""
    TABLE SALE (Shop : NUMERIC, Amount : NUMERIC);
    CREATE VIEW BIG (Shop, Amount) AS
      SELECT Shop, Amount FROM SALE WHERE Amount > 10
    """)
    db.execute("INSERT INTO SALE VALUES (1, 5), (1, 15), (2, 25), (2, 40)")
    return db
