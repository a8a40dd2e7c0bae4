"""The block scanner's rule index and clean-subtree memo.

A subtree scanned to the end without an application is remembered and
skipped for the rest of the rewrite.  Three things must keep a subtree
*out* of that memo -- a rule that raised inside it, an application
dropped as a no-op at the parent, a checks budget that ended the scan
-- and each test below plants a rule that fires on a later scan only
if the subtree is looked at again.  The index must notice rules added
after it was built and must serve rule objects that know nothing of it.
"""

from repro import Database, Extension
from repro.errors import RuleError
from repro.resilience import ResiliencePolicy
from repro.rules.control import Block, RewriteEngine, Seq
from repro.rules.native import NativeRule
from repro.rules.rule import RuleContext, rule_from_text
from repro.terms.parser import parse_term
from repro.terms.term import is_fun, mk_fun

from tests.rules.reference_engine import ReferenceEngine

SHRINK = rule_from_text("shrink: P(P(x)) --> P(x)")


class RaisesOnceThenFires:
    """Duck-typed: ``T(x) --> U(x)``, but the first attempt raises."""

    name = "late"

    def __init__(self):
        self.attempts = 0

    def quick_applicable(self, subject) -> bool:
        return is_fun(subject, "T")

    def apply(self, subject, ctx):
        self.attempts += 1
        if self.attempts == 1:
            raise RuleError("not yet")
        return mk_fun("U", subject.args), {}


class TestWhatStaysOutOfTheMemo:
    def test_subtree_where_a_rule_raised(self):
        # scan 1: `late` raises at T(1), shrink fires further right;
        # scan 2 must try K(T(1)) again although nothing in it changed
        late = RaisesOnceThenFires()
        engine = RewriteEngine(Seq([Block("b", [late, SHRINK])]),
                               resilience=ResiliencePolicy())
        result = engine.rewrite(parse_term("W(K(T(1)), P(P(Z)))"),
                                RuleContext())
        assert result.term == parse_term("W(K(U(1)), P(Z))")
        assert result.rules_fired() == ["shrink", "late"]
        assert len(result.resilience.rule_failures) == 1
        assert late.attempts == 2

    def test_subtree_with_a_no_op_at_the_parent(self):
        # expand turns PA(1) into PA(1) AND PB(1), which the enclosing
        # AND absorbs (a no-op) for as long as it holds PB(1).  Once
        # swap has rewritten that PB(1), the same rule at the same
        # PA(1) changes the term -- the verdict belonged to the parent
        expand = rule_from_text("expand: PA(x) --> PA(x) AND PB(x)")
        swap = rule_from_text("swap: PB(x) --> PC(x)")
        seq = Seq([Block("b", [expand, swap], limit=2)])
        term = parse_term("W(PA(1) AND PB(1))")
        result = RewriteEngine(seq).rewrite(term, RuleContext())
        assert result.rules_fired() == ["swap", "expand"]
        assert result.term == parse_term("W(PA(1) AND PB(1) AND PC(1))")
        reference = ReferenceEngine(seq).rewrite(term, RuleContext())
        assert reference.term == result.term
        assert reference.rules_fired() == result.rules_fired()

    def test_subtree_the_checks_budget_cut_short(self):
        # pass 1: collapse spends check 1 on DUP(K(DUP(1))) (a miss; the
        # subtree is clean from here on), check 2 on the second DUP(...)
        # (a miss) and runs out at the DUP(DUP(1)) inside it; `other`
        # then changes a sibling.  Pass 2 skips the clean subtree for
        # free, so the same budget of 2 now reaches DUP(DUP(1)) -- but
        # only if the subtree the budget died in was not called clean
        collapse = rule_from_text("collapse: DUP(DUP(x)) --> DUP(x)")
        seq = Seq([Block("tight", [collapse], limit=2, count="checks"),
                   Block("other", [SHRINK])], passes=2)
        term = parse_term(
            "W(DUP(K(DUP(1))), DUP(OTHER(DUP(DUP(1)))), P(P(Z)))")
        result = RewriteEngine(seq).rewrite(term, RuleContext())
        assert result.rules_fired() == ["shrink", "collapse"]
        assert result.term == parse_term(
            "W(DUP(K(DUP(1))), DUP(OTHER(DUP(1))), P(Z))")
        # 3 in pass 1 (the aborting check counts), 2 in pass 2, plus
        # shrink: P(P(Z)) fires, P(Z) is turned away by its symbols
        assert result.checks == 3 + 1 + 2

    def test_clean_subtrees_cost_no_checks_on_later_scans(self):
        """The memo at work: three firings over a wide term, each
        followed by a rescan that re-examines one path only."""
        probe = rule_from_text("probe: M(M(M(x))) --> x")  # never matches
        rules = [probe, SHRINK]
        wide = parse_term(
            "W(M(M(1)), M(M(2)), M(M(3)), M(M(4)), P(P(P(P(Z)))))")
        shipped = RewriteEngine(Seq([Block("b", rules)])).rewrite(
            wide, RuleContext())
        reference = ReferenceEngine(Seq([Block("b", rules)])).rewrite(
            wide, RuleContext())
        assert shipped.term == reference.term == parse_term(
            "W(M(M(1)), M(M(2)), M(M(3)), M(M(4)), P(Z))")
        assert shipped.applications == reference.applications == 3
        # reference: four scans, each checking probe at every M(...) and
        # shrink at the one P(...) it reaches.  Shipped: each M(M(n)) is
        # checked once (M(n) has no M below it) and skipped three times;
        # the last scan turns shrink away from P(Z) by its symbols
        assert reference.checks == 4 * (8 + 1)
        assert shipped.checks == 4 + 3


SCHEMA = """
TABLE SALE (Shop : NUMERIC, Amount : NUMERIC);
CREATE VIEW BIG (Shop, Amount) AS
  SELECT Shop, Amount FROM SALE WHERE Amount > 10
"""
QUERY = "SELECT Amount FROM BIG WHERE Shop = 2"
TIGHTEN = "tighten: x > 10 / --> x > 11 /"


def sale_db() -> Database:
    db = Database()
    db.execute(SCHEMA)
    db.execute("INSERT INTO SALE VALUES (1, 5), (2, 11), (2, 25)")
    return db


class TestIndexInvalidation:
    def test_add_rule_after_a_first_query(self):
        db = sale_db()
        assert db.query(QUERY).rows == [(11,), (25,)]  # index built
        db.optimizer.rewriter.add_rule(rule_from_text(TIGHTEN),
                                       block="simplify")
        optimized = db.optimize(QUERY)
        assert "tighten" in optimized.rewrite_result.rules_fired()
        assert db.query(QUERY).rows == [(25,)]

    def test_add_rule_at_the_front_keeps_block_order(self):
        db = sale_db()
        db.optimize(QUERY)
        rewriter = db.optimizer.rewriter
        rewriter.add_rule(rule_from_text(TIGHTEN), block="simplify")
        rewriter.add_rule(rule_from_text("first: x > 10 / --> x > 12 /"),
                          block="simplify", position=0)
        fired = db.optimize(QUERY).rewrite_result.rules_fired()
        assert "first" in fired and "tighten" not in fired

    def test_extension_installed_after_a_first_query(self):
        db = sale_db()
        assert len(db.query(QUERY).rows) == 2
        db.install(Extension("strict").rule("simplify", TIGHTEN))
        assert db.query(QUERY).rows == [(25,)]

    def test_set_block_limit_then_add_rule(self):
        db = sale_db()
        db.optimize(QUERY)
        rewriter = db.optimizer.rewriter
        rewriter.set_block_limit("simplify", 5)  # replaces the block
        rewriter.add_rule(rule_from_text(TIGHTEN), block="simplify")
        fired = db.optimize(QUERY).rewrite_result.rules_fired()
        assert "tighten" in fired
        rewriter.set_block_limit("simplify", 0)
        fired = db.optimize(QUERY).rewrite_result.rules_fired()
        assert "tighten" not in fired

    def test_index_contents(self):
        native = NativeRule("anywhere")
        block = Block("b", [SHRINK, native])
        by_root, rootless = block.rule_index()
        assert by_root == {"P": (SHRINK, native)}
        assert rootless == (native,)
        grow = rule_from_text("grow: Q(x) --> Q(P(x))")
        block.rules.insert(0, grow)
        by_root, rootless = block.rule_index()
        assert by_root == {"P": (SHRINK, native), "Q": (grow, native)}
        assert block.with_limit(3).rule_index()[0] == by_root


class BareRule:
    """Exposes only what the engine promises to touch."""

    __slots__ = ("name", "seen")

    def __init__(self):
        self.name = "bare"
        self.seen = []

    def quick_applicable(self, subject) -> bool:
        self.seen.append(subject)
        return is_fun(subject, "X")

    def apply(self, subject, ctx):
        return mk_fun("Y", subject.args), {}


class TestDuckTypedRules:
    def test_rule_with_only_name_quick_applicable_apply(self):
        bare = BareRule()
        engine = RewriteEngine(Seq([Block("b", [SHRINK, bare])]))
        result = engine.rewrite(parse_term("W(P(P(Z)), X(1))"),
                                RuleContext())
        assert result.term == parse_term("W(P(Z), Y(1))")
        assert result.rules_fired() == ["shrink", "bare"]
        # a wildcard: offered every position, leaves included
        assert parse_term("W(P(P(Z)), X(1))") in bare.seen
        assert parse_term("Z") in bare.seen
