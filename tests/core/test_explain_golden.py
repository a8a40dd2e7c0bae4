"""Text EXPLAIN, byte for byte: it renders the JSON report, and a
reader of the text sees what they saw before it did."""

from tests.resilience.chaos import (SALE_QUERY, AlwaysRaisingRule,
                                    bad_comparison_rule, sale_db)
from tests.rules.test_scan_differential import workload_db

NO_RULE_FIRES = """\
== plan before rewriting (13 nodes) ==
SEARCH [417 = #1.3] -> (AS(#1.1, 'Id'), AS(#1.3, 'Val'))
  SMALL

== plan after rewriting (13 nodes) ==
SEARCH [417 = #1.3] -> (AS(#1.1, 'Id'), AS(#1.3, 'Val'))
  SMALL

(no rules fired)"""

MERGE_AND_PUSH = """\
== plan before rewriting (42 nodes) ==
SEARCH [6 = #1.1] -> (AS(#1.2, 'Item'), AS(#1.3, 'Amount'))
  UNION
    SEARCH [true] -> (AS(#1.1, 'Shop'), AS(#1.2, 'Item'), AS(#1.3, 'Amount'))
      OLD_SALE
    SEARCH [true] -> (AS(#1.1, 'Shop'), AS(#1.2, 'Item'), AS(#1.3, 'Amount'))
      SALE

== plan after rewriting (32 nodes) ==
SEARCH [true] -> (AS(#1.2, 'Item'), AS(#1.3, 'Amount'))
  UNION
    SEARCH [6 = #1.1] -> (#1.1, #1.2, #1.3)
      OLD_SALE
    SEARCH [6 = #1.1] -> (#1.1, #1.2, #1.3)
      SALE

== 3 rule application(s) ==
  [push] search_union_push at []
  [merge_again] search_merge at [0, 0, 0, 0]
  [merge_again] search_merge at [0, 0, 0, 1]

== per-block summary ==
  push: search_union_push x1
  merge_again: search_merge x2"""

CHECKED_ROLLBACK = """\
== plan before rewriting (20 nodes) ==
SEARCH [true] -> (AS(#1.2, 'Amount'))
  SEARCH [#1.2 > 10] -> (AS(#1.1, 'Shop'), AS(#1.2, 'Amount'))
    SALE

== plan after rewriting (10 nodes) ==
SEARCH [#1.2 > 10] -> (AS(#1.2, 'Amount'))
  SALE

== 1 rule application(s) ==
  [merge] search_merge at []

== per-block summary ==
  merge: search_merge x1

== resilience ==
  rule failure: bomb in simplify (RuleError: injected failure)
  rule failure: bomb in simplify (RuleError: injected failure)
  rule failure: bomb in simplify (RuleError: injected failure)
  quarantined: bomb, bad_cmp
  checked: 2 validation(s), 1 rollback(s)
    rolled back simplify: results diverge on the sampled database \
(3 row(s) before, 4 after); gained (5,)"""


def test_a_statement_where_no_rule_fires():
    db = workload_db("point_filter")
    assert db.explain("SELECT Id, Val FROM SMALL WHERE Val = 417") == \
        NO_RULE_FIRES


def test_merge_and_push_with_the_per_block_summary():
    db = workload_db("rewrite_heavy")
    assert db.explain("SELECT Item, Amount FROM ALL_SALE WHERE Shop = 6") \
        == MERGE_AND_PUSH


def test_a_checked_rollback_with_the_resilience_section():
    db = sale_db()
    db.optimizer.rewriter.add_rule(AlwaysRaisingRule(), "simplify")
    db.optimizer.rewriter.add_rule(bad_comparison_rule(), "simplify")
    assert db.explain(SALE_QUERY, checked=True) == CHECKED_ROLLBACK
