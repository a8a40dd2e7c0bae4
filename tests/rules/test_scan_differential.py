"""The shipped scanner against the full-rescan reference.

The rule index, the symbol test and the clean-subtree memo of
:mod:`repro.rules.control` are allowed to change how much a block scan
costs and nothing else: every statement must produce the identical
``(block, rule, path, before, after)`` trace, final term and
application count under :class:`ReferenceEngine`, which rescans the
whole term with every rule after every application -- and which
applies a compiled rule through the interpreting matcher, constraint
evaluation, method dispatch and instantiation of
``reference_rule.py``, so the comparison is the whole old stack
against the whole generated one.  The last class holds the scanner
fixed and swaps only how a rule is applied: there every event and
every counted check must agree too.
"""

import re
from random import Random

import pytest

from repro import Database
from repro.lera.typecheck import typecheck
from repro.obs.bus import EventBus
from repro.obs.events import ConstraintCheck, MethodCall, RuleAttempt
from repro.qa.harness import case_seed
from repro.qa.oracle import DifferentialOracle
from repro.qa.query_gen import random_case
from repro.resilience import ResiliencePolicy
from repro.rules.control import Block, RewriteEngine, Seq
from repro.rules.rule import RewriteRule, rule_from_text
from repro.terms.printer import term_to_str

from tests.resilience.chaos import AlwaysRaisingRule
from tests.rules.reference_engine import ReferenceEngine
from tests.rules.reference_rule import reference_apply


def run(engine_class, db, typed, **kwargs):
    rewriter = db.optimizer.rewriter
    engine = engine_class(rewriter.seq, **kwargs)
    return engine.rewrite(typed, rewriter.context())


def steps(result):
    """The trace and the final term, printed.  The Alexander method
    numbers its fresh relations (``R$MAGIC7``) from a process-wide
    counter, so those numbers are replaced by their order of first
    appearance in this rewrite."""
    seen: dict = {}

    def renumber(match):
        return match.group(1) + str(seen.setdefault(match.group(2),
                                                    len(seen)))

    def text(term):
        return re.sub(r"(\$(?:MAGIC|BOUND))(\d+)", renumber,
                      term_to_str(term))

    return [(e.block, e.rule, e.path, text(e.before), text(e.after))
            for e in result.trace] + [text(result.term)]


def assert_same_rewrite(db, query, **kwargs):
    """Both engines on one query; returns (shipped, reference)."""
    typed, __ = typecheck(db._translate_single(query), db.catalog)
    shipped = run(RewriteEngine, db, typed, **kwargs)
    reference = run(ReferenceEngine, db, typed, **kwargs)
    assert steps(shipped) == steps(reference), query
    assert shipped.applications == reference.applications, query
    assert shipped.passes == reference.passes, query
    # skipping can only save condition checks
    assert shipped.checks <= reference.checks, query
    return shipped, reference


class TestFuzzSweep:
    def test_fixed_seed_sweep_matches_reference(self):
        """The CI fuzz sweep's 300 cases (anti-pattern block on)."""
        oracle = DifferentialOracle(antipattern=True)
        compared = fired = 0
        for index in range(300):
            case, __ = random_case(Random(case_seed(20260808, index)))
            db = oracle.build_db(case)
            try:
                try:
                    db._translate_single(case.query)
                except Exception:
                    continue  # a generator miss, skipped by the sweep too
                shipped, __ = assert_same_rewrite(db, case.query)
            finally:
                db.close()
            compared += 1
            fired += bool(shipped.applications)
        assert compared >= 290
        assert fired >= 100  # the sweep exercises firing, not just scans


# one statement per template of the four in-memory perf workloads
# (benchmarks/perf/workloads.py), DDL restated here
ITEM = "TABLE {} (Id : NUMERIC, Grp : NUMERIC, Val : NUMERIC, Tag : CHAR)"
WORKLOADS = {
    "point_filter": ([ITEM.format("SMALL"), ITEM.format("BIG")], [], [
        "SELECT Id, Val FROM SMALL WHERE Val = 417",
        "SELECT Id FROM SMALL WHERE Val > 250",
        "SELECT Id, Grp FROM SMALL WHERE Val >= 800",
        "SELECT * FROM SMALL WHERE Id = 17",
        "SELECT Id FROM SMALL WHERE Grp = 3 AND Val > 120",
        "SELECT Val FROM SMALL WHERE Tag = 't4' AND Val >= 300",
        "SELECT Id, Tag FROM SMALL WHERE Val <> 9",
        "SELECT Id FROM SMALL WHERE Grp = 11 AND Id > 60",
        "SELECT Id, Val FROM SMALL WHERE Val + 7 > 500",
        "SELECT Id, Val FROM SMALL WHERE Tag = 't1' AND Id > 30",
        "SELECT Tag FROM SMALL WHERE Val >= 640 AND Grp <> 5",
        "SELECT Id FROM BIG WHERE Id = 731",
    ]),
    "join_heavy": ([
        "TABLE CUST (Id : NUMERIC, Region : NUMERIC, Tier : NUMERIC)",
        "TABLE ORD (Id : NUMERIC, Cust : NUMERIC, Total : NUMERIC)",
        "TABLE ITEM (Id : NUMERIC, Ord : NUMERIC, Qty : NUMERIC)",
    ], [], [
        "SELECT C.Id, O.Total FROM CUST C, ORD O "
        "WHERE C.Id = O.Cust AND C.Region = 4",
        "SELECT O.Id, C.Tier FROM CUST C, ORD O "
        "WHERE C.Id = O.Cust AND O.Total > 350",
        "SELECT O.Id, I.Qty FROM ORD O, ITEM I "
        "WHERE O.Id = I.Ord AND I.Qty > 20",
        "SELECT C.Id, I.Id FROM CUST C, ORD O, ITEM I "
        "WHERE C.Id = O.Cust AND O.Id = I.Ord AND C.Region = 2",
        "SELECT C.Id, I.Qty FROM CUST C, ORD O, ITEM I "
        "WHERE C.Id = O.Cust AND O.Id = I.Ord "
        "AND I.Qty > 10 AND O.Total > 500",
    ]),
    "recursive_view": ([
        "TABLE EDGE (Src : NUMERIC, Dst : NUMERIC)",
        "CREATE VIEW REACH (Src, Dst) AS "
        "( SELECT Src, Dst FROM EDGE UNION "
        "SELECT R.Src, E.Dst FROM REACH R, EDGE E WHERE R.Dst = E.Src )",
    ], [], [
        "SELECT Dst FROM REACH WHERE Src = 12",
        "SELECT Src, Dst FROM REACH",
        "SELECT Dst, Src FROM REACH",
    ]),
    "rewrite_heavy": ([
        "TABLE SALE (Shop : NUMERIC, Item : NUMERIC, Amount : NUMERIC)",
        "TABLE OLD_SALE (Shop : NUMERIC, Item : NUMERIC, "
        "Amount : NUMERIC)",
        "TABLE SHOP (Sid : NUMERIC, Region : NUMERIC)",
        "CREATE VIEW BIG_SALE (Shop, Item, Amount) AS "
        "SELECT Shop, Item, Amount FROM SALE WHERE Amount > 50",
        "CREATE VIEW HUGE_SALE (Shop, Item, Amount) AS "
        "SELECT Shop, Item, Amount FROM BIG_SALE WHERE Amount > 80",
        "CREATE VIEW REGION_SALE (Region, Item, Amount) AS "
        "SELECT SHOP.Region, BIG_SALE.Item, BIG_SALE.Amount "
        "FROM BIG_SALE, SHOP WHERE BIG_SALE.Shop = SHOP.Sid",
        "CREATE VIEW ALL_SALE (Shop, Item, Amount) AS "
        "( SELECT Shop, Item, Amount FROM SALE UNION "
        "SELECT Shop, Item, Amount FROM OLD_SALE )",
        "TYPE Status ENUMERATION OF ('open', 'closed', 'void')",
        "TABLE TICKET (Id : NUMERIC, State : Status, Price : NUMERIC)",
        "TABLE MEASURE (Id : NUMERIC, Lo : NUMERIC, Hi : NUMERIC)",
    ], [
        "ic_status: F(x) / ISA(x, Status) --> "
        "F(x) AND MEMBER(x, MAKESET('open', 'closed', 'void')) /",
    ], [
        "SELECT Amount FROM HUGE_SALE WHERE Shop = 3",
        "SELECT Item FROM REGION_SALE WHERE Region = 1 AND Amount > 70",
        "SELECT Item, Amount FROM ALL_SALE WHERE Shop = 6",
        "SELECT A.Item, A.Amount FROM ALL_SALE A "
        "WHERE A.Shop = 2 AND A.Amount > 40",
        "SELECT Id FROM TICKET WHERE State = 'lost' AND Price > 30",
        "SELECT Id FROM TICKET WHERE State = 'closed' AND Price > 55",
        "SELECT Id FROM MEASURE WHERE Lo = 12 AND Lo > 19",
        "SELECT Id FROM MEASURE WHERE Hi > 5 AND Hi > 12 AND Hi > 19 "
        "AND 1 = 1",
        "SELECT Id FROM MEASURE WHERE Lo > 8 AND Lo < 21",
        "SELECT Id FROM MEASURE WHERE Lo > 33 AND Lo < 30",
    ]),
}


def workload_db(name, **kwargs) -> Database:
    ddl, constraints, __ = WORKLOADS[name]
    db = Database(**kwargs)
    for script in ddl:
        db.execute(script)
    for constraint in constraints:
        db.add_integrity_constraint(constraint)
    return db


class TestPerfWorkloadTemplates:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    @pytest.mark.parametrize("antipattern", [False, True])
    def test_every_template_matches_reference(self, name, antipattern):
        db = workload_db(name, antipattern=antipattern)
        for query in WORKLOADS[name][2]:
            assert_same_rewrite(db, query)

    def test_the_firing_workloads_do_fire(self):
        """Guards the table above against drifting into no-ops."""
        for name, least in (("recursive_view", 3), ("rewrite_heavy", 3)):
            db = workload_db(name)
            first = WORKLOADS[name][2][0]
            assert db.optimize(first).applications >= least

    def test_checks_equal_attempt_events(self):
        """A check is one RuleAttempt event, in both engines."""
        db = workload_db("rewrite_heavy")
        for engine_class in (RewriteEngine, ReferenceEngine):
            attempts = []
            bus = EventBus()
            bus.subscribe(attempts.append, kinds=[RuleAttempt])
            typed, __ = typecheck(
                db._translate_single(WORKLOADS["rewrite_heavy"][2][1]),
                db.catalog)
            result = run(engine_class, db, typed, obs=bus)
            assert result.applications
            assert result.checks == len(attempts)
            assert sum(a.matched for a in attempts) == \
                result.applications


class TestSandboxedFailures:
    @pytest.mark.parametrize("threshold", [2, 7, 1000])
    def test_same_failures_and_quarantine_point(self, threshold):
        """A rule that raises wherever it is tried: the shipped engine
        must record the same failures in the same order (so the
        quarantine trips at the same attempt), although raising keeps
        subtrees out of its memo rather than in it."""
        db = workload_db("rewrite_heavy")
        db.optimizer.rewriter.add_rule(
            AlwaysRaisingRule("bomb"), block="merge", position=1)
        policy = ResiliencePolicy(failure_threshold=threshold)
        for query in WORKLOADS["rewrite_heavy"][2][:4]:
            shipped, reference = assert_same_rewrite(
                db, query, resilience=policy)
            ours, theirs = shipped.resilience, reference.resilience
            assert [f.as_dict() for f in ours.rule_failures] == \
                [f.as_dict() for f in theirs.rule_failures]
            assert ours.quarantined == theirs.quarantined
            assert ours.rule_failures
            assert bool(ours.quarantined) == (threshold < 1000)


# -- the generated rules against the interpreted ones, under one scanner -------

class InterpretedRule:
    """A compiled rule as the engine sees it, applied by the
    interpreting body of ``reference_rule.py``."""

    def __init__(self, rule):
        self.rule = rule
        self.name = rule.name
        self.root_name = rule.root_name
        self.quick_applicable = rule.quick_applicable

    def apply(self, subject, ctx):
        return reference_apply(self.rule, subject, ctx)


def interpreted(seq, **block_kwargs):
    """``seq`` with every compiled rule interpreted (and, optionally,
    every block re-budgeted)."""
    return Seq([
        Block(block.name,
              [InterpretedRule(rule) if isinstance(rule, RewriteRule)
               else rule for rule in block.rules],
              block_kwargs.get("limit", block.limit),
              block_kwargs.get("count", block.count))
        for block in seq.blocks], passes=seq.passes)


def told(events):
    """Events without their clock readings."""
    return [
        (e.block, e.rule, e.path, e.matched) if isinstance(e, RuleAttempt)
        else (e.constraint, e.outcome) if isinstance(e, ConstraintCheck)
        else (e.name, e.arity, e.success) for e in events]


def rewrite_with(db, seq, typed, **kwargs):
    events = []
    bus = EventBus()
    bus.subscribe(events.append,
                  kinds=[RuleAttempt, ConstraintCheck, MethodCall])
    engine = RewriteEngine(seq, obs=bus, **kwargs)
    result = engine.rewrite(typed, db.optimizer.rewriter.context())
    return result, told(events)


class TestGeneratedAgainstInterpretedRules:
    """Same scanner, same memo, same budgets: the only difference is
    how a rule is applied, so *everything* must agree -- each attempt,
    each constraint check, each method call, each check counted."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_events_in_the_same_order(self, name):
        db = workload_db(name, antipattern=True)
        seq = db.optimizer.rewriter.seq
        for query in WORKLOADS[name][2]:
            typed, __ = typecheck(db._translate_single(query), db.catalog)
            ours, our_events = rewrite_with(db, seq, typed)
            theirs, their_events = rewrite_with(db, interpreted(seq), typed)
            assert steps(ours) == steps(theirs), query
            assert our_events == their_events, query
            assert ours.checks == theirs.checks == sum(
                1 for e in our_events if len(e) == 4)
            # and a bus changes nothing
            assert steps(run(RewriteEngine, db, typed)) == steps(ours)

    @pytest.mark.parametrize("limit", [1, 5, 12, 30])
    def test_checks_budgets_run_out_at_the_same_attempt(self, limit):
        db = workload_db("rewrite_heavy")
        seq = db.optimizer.rewriter.seq
        budgeted = interpreted(seq, limit=limit, count="checks")
        ours_seq = Seq([Block(b.name, b.rules, limit, "checks")
                        for b in seq.blocks], passes=seq.passes)
        fired = 0
        for query in WORKLOADS["rewrite_heavy"][2]:
            typed, __ = typecheck(db._translate_single(query), db.catalog)
            ours, our_events = rewrite_with(db, ours_seq, typed)
            theirs, their_events = rewrite_with(db, budgeted, typed)
            assert steps(ours) == steps(theirs), query
            assert our_events == their_events, query
            assert ours.checks == theirs.checks
            fired += ours.applications
        assert fired or limit == 1

    def test_sandboxed_failures_fall_at_the_same_attempts(self):
        db = workload_db("rewrite_heavy")
        db.optimizer.rewriter.add_rule(
            AlwaysRaisingRule("bomb"), block="merge", position=1)
        db.optimizer.rewriter.add_rule(rule_from_text(
            "lost: x > y / ISA(y, CONSTANT) --> x > w / GONE(y, w)"),
            block="simplify", position=0)
        seq = db.optimizer.rewriter.seq
        policy = ResiliencePolicy(failure_threshold=4)
        errors = set()
        for query in WORKLOADS["rewrite_heavy"][2][:4]:
            typed, __ = typecheck(db._translate_single(query), db.catalog)
            ours, our_events = rewrite_with(db, seq, typed,
                                            resilience=policy)
            theirs, their_events = rewrite_with(db, interpreted(seq), typed,
                                                resilience=policy)
            assert steps(ours) == steps(theirs), query
            assert our_events == their_events, query
            assert [f.as_dict() for f in ours.resilience.rule_failures] \
                == [f.as_dict() for f in theirs.resilience.rule_failures]
            errors |= {f.error for f in ours.resilience.rule_failures}
            assert ours.resilience.quarantined \
                == theirs.resilience.quarantined
        assert errors == {"RuleError", "MethodError"}
