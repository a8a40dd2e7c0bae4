"""Generated rule application against the interpreting body.

``RewriteRule.applications`` runs a generated matcher, a guard chain of
resolved closures and a generated builder; ``reference_rule.py`` keeps
the body it replaced.  For every shipped rule at every position of
every generated plan the two must produce the same ``(result,
binding)`` sequence, emit the same ``ConstraintCheck`` / ``MethodCall``
events in the same order, and raise the same error types -- and the
extension contract (late ``add_rule``, late methods and predicates,
quarantine, unknown methods, duck-typed rules) must hold as it did.
"""

import re

import pytest

from repro import Database, Extension
from repro.errors import MethodError, RuleError
from repro.obs.bus import EventBus
from repro.obs.events import ConstraintCheck, MethodCall
from repro.rules.antipattern import antipattern_rules
from repro.rules.control import Block
from repro.rules.meta import standard_rule_library
from repro.rules.rule import RewriteRule, RuleContext, rule_from_text
from repro.terms.parser import parse_term
from repro.terms.printer import term_to_str
from repro.terms.term import Seq, is_fun, mk_fun, num

from tests.generated_plans import generated_queries
from tests.resilience.chaos import SALE_QUERY, sale_db
from tests.rules.reference_engine import positions, root_applicable
from tests.rules.reference_rule import (reference_applications,
                                        reference_holds, reference_invoke)


def outcome(applications, rule, subject, ctx):
    """What one attempt produced, printed: the applications (fresh
    relation numbers of the Alexander method replaced by their order of
    appearance), the events, and the error type if it raised."""
    seen: dict = {}

    def renumber(found):
        return found.group(1) + str(seen.setdefault(found.group(2),
                                                    len(seen)))

    def text(value):
        if isinstance(value, Seq):
            return [text(item) for item in value.items]
        if isinstance(value, str):
            return value
        return re.sub(r"(\$(?:MAGIC|BOUND))(\d+)", renumber,
                      term_to_str(value))

    events = []
    bus = EventBus()
    bus.subscribe(events.append, kinds=[ConstraintCheck, MethodCall])
    ctx = RuleContext(catalog=ctx.catalog, schemas=ctx.schemas,
                      constraint_evaluator=ctx.constraint_evaluator,
                      methods=ctx.methods, fix_env=ctx.fix_env, obs=bus)
    produced, error = [], None
    try:
        for result, binding in applications(rule, subject, ctx):
            produced.append((text(result),
                             [(key, text(value))
                              for key, value in binding.items()]))
            if len(produced) == 5:
                break
    except Exception as raised:
        error = type(raised)
    told = [(e.constraint, e.outcome) if isinstance(e, ConstraintCheck)
            else (e.name, e.arity, e.success) for e in events]
    return produced, told, error


def shipped(rule, subject, ctx):
    return rule.applications(subject, ctx)


class TestApplicationsAgainstTheReferenceBody:
    def test_every_rule_at_every_position(self):
        rules = [rule for rule in list(standard_rule_library().values())
                 + antipattern_rules() if isinstance(rule, RewriteRule)]
        compared = applied = told = 0
        fired = set()
        for db, query in generated_queries(cases=300):
            optimized = db.optimize(query)
            base = db.optimizer.rewriter.context()
            plans = {optimized.typed} | {e.before for e in optimized.trace}
            for plan in plans:
                for __, subterm, schemas, fix_env in positions(plan, base):
                    ctx = RuleContext(
                        catalog=base.catalog, schemas=schemas,
                        constraint_evaluator=base.constraint_evaluator,
                        methods=base.methods, fix_env=fix_env)
                    for rule in rules:
                        if not root_applicable(rule, subterm):
                            continue
                        ours = outcome(shipped, rule, subterm, ctx)
                        theirs = outcome(reference_applications, rule,
                                         subterm, ctx)
                        assert ours == theirs, (rule.name, subterm)
                        compared += 1
                        told += bool(ours[1])
                        if ours[0]:
                            applied += 1
                            fired.add(rule.name)
        assert compared > 30_000
        assert applied > 1000 and told > 500
        assert len(fired) >= 40, sorted(fired)

    def test_error_types_agree(self):
        ctx = RuleContext()
        ctx.method_registry().register(
            "SILENT", 2, lambda inst, raw, binding, ctx: {})
        subject = parse_term("P(1)")
        for source, expected in [
            ("P(x) --> Q(y) / NOPE(x, y)", MethodError),
            ("P(x) --> Q(y) / SILENT(x, y)", RuleError),  # y stays unbound
            ("P(x) --> Q(y*) / SILENT(x, y*)", RuleError),
        ]:
            rule = rule_from_text(source)
            ours = outcome(shipped, rule, subject, ctx)
            assert ours == outcome(reference_applications, rule, subject,
                                   ctx)
            assert ours[2] is expected

    def test_a_method_may_not_rebind(self):
        rule = rule_from_text("P(x) --> Q(x) / CLOBBER(x)")
        ctx = RuleContext()
        ctx.method_registry().register(
            "CLOBBER", 1, lambda inst, raw, binding, ctx: {"x": num(2)})
        with pytest.raises(RuleError, match="rebinds"):
            rule.apply(parse_term("P(1)"), ctx)
        with pytest.raises(RuleError, match="rebinds"):
            list(reference_applications(rule, parse_term("P(1)"), ctx))


class TestHoldsAndInvokeAreTheCompiledPath:
    def test_holds_equals_the_interpreting_evaluation(self):
        ctx = RuleContext()
        evaluator = ctx.evaluator()
        binding = {"y": num(3), "z": num(1), "*q": Seq([num(1)])}
        for source in ["y >= z", "NOT(y >= z)", "y >= z AND z >= y",
                       "y >= z OR z >= y", "ISA(y, CONSTANT)", "true",
                       "NONEMPTY(q*)", "MEMBER(z, q*)", "UNKNOWN(y)",
                       "w >= z", "ISA(y)"]:
            constraint = parse_term(source)
            assert evaluator.holds(constraint, binding, ctx) == \
                reference_holds(evaluator, constraint, binding, ctx), source

    def test_invoke_equals_the_interpreting_dispatch(self):
        ctx = RuleContext()
        registry = ctx.method_registry()
        call = parse_term("EVALUATE(x, y)")
        for binding in ({"x": parse_term("2 + 3")}, {"x": parse_term("z + 3")}):
            assert registry.invoke(call, binding, ctx) == \
                reference_invoke(registry, call, binding, ctx)


# -- the extension contract ----------------------------------------------------

TIGHTEN = "tighten: x > 10 / --> x > 20 /"


class TestExtensionContract:
    def test_rule_added_with_add_rule_after_construction(self):
        db = sale_db()
        assert "tighten" not in db.optimize(SALE_QUERY) \
            .rewrite_result.rules_fired()  # the block is generated now
        db.optimizer.rewriter.add_rule(rule_from_text(TIGHTEN),
                                       block="simplify")
        assert "tighten" in db.optimize(SALE_QUERY) \
            .rewrite_result.rules_fired()
        assert db.query(SALE_QUERY).rows == [(25,), (40,)]

    def test_method_and_predicate_registered_after_the_rule(self):
        """``Database.install`` adds an extension's rules first, its
        methods and predicates after; a rule tried in between must see
        them once they are there."""
        db = sale_db()
        rewriter = db.optimizer.rewriter
        rewriter.add_rule(rule_from_text(
            "late: x > 10 / WIDE(x) --> x > w / BOUND(x, w)"),
            block="simplify")
        ctx = rewriter.context()
        rule = rewriter.block("simplify").rules[-1]
        subject = parse_term("#1.2 > 10")
        assert rule.apply(subject, ctx) is None  # WIDE: undecidable
        rewriter.add_predicate("WIDE", lambda args, b, c: True)
        with pytest.raises(MethodError):  # and now BOUND is missed
            rule.apply(subject, ctx)
        rewriter.add_method(
            "BOUND", 2, lambda inst, raw, b, c: {"w": num(20)})
        assert rule.apply(subject, ctx)[0] == parse_term("#1.2 > 20")
        rewriter.add_predicate("WIDE", lambda args, b, c: False)
        assert rule.apply(subject, ctx) is None
        rewriter.add_predicate("WIDE", lambda args, b, c: True)
        rewriter.add_method(
            "BOUND", 2, lambda inst, raw, b, c: {"w": num(30)})
        assert rule.apply(subject, ctx)[0] == parse_term("#1.2 > 30")

    def test_install_order(self):
        db = sale_db()
        db.install(
            Extension("late")
            .rule("simplify", "late: x > 10 / --> x > w / BOUND(x, w)")
            .method("BOUND", 2, lambda inst, raw, b, c: {"w": num(20)}))
        assert db.query(SALE_QUERY).rows == [(25,), (40,)]

    def test_quarantined_rule_is_skipped(self):
        db = sale_db()
        db.optimizer.rewriter.add_rule(rule_from_text(TIGHTEN),
                                       block="simplify")
        db.quarantine.note("simplify", "tighten", "benched by hand",
                           source="manual")
        assert "tighten" not in db.optimize(SALE_QUERY) \
            .rewrite_result.rules_fired()
        db.quarantine.lift("tighten")
        assert "tighten" in db.optimize(SALE_QUERY) \
            .rewrite_result.rules_fired()

    def test_unknown_method_is_a_sandboxed_error_at_application(self):
        rule = rule_from_text(  # building it is fine
            "lost: x > 10 / --> x > w / NO_SUCH_METHOD(x, w)")
        db = sale_db(resilient=True)
        db.optimizer.rewriter.add_rule(rule, block="simplify")
        report = db.explain_json(SALE_QUERY)["resilience"]
        assert report["rule_failures"]
        assert {(f["rule"], f["error"]) for f in report["rule_failures"]} \
            == {("lost", "MethodError")}
        assert len(db.query(SALE_QUERY).rows) == 3  # answered all the same
        plain = sale_db()
        plain.optimizer.rewriter.add_rule(rule, block="simplify")
        with pytest.raises(MethodError):
            plain.optimize(SALE_QUERY)

    def test_duck_typed_rule_without_root_name(self):
        class Bare:
            name = "bare"

            def quick_applicable(self, subject):
                return is_fun(subject, ">")

            def apply(self, subject, ctx):
                if subject.args[1] == num(10):
                    return mk_fun(">", [subject.args[0], num(20)]), {}
                return None

        block = Block("b", [rule_from_text("P(x) --> Q(x)"), Bare()])
        by_root, rootless, roots, screens = block.dispatch()
        assert roots is None and len(rootless) == 1  # tried everywhere
        assert list(screens) == [block.rules[0]]  # it answers for itself
        db = sale_db()
        db.optimizer.rewriter.add_rule(Bare(), block="merge")
        assert "bare" in db.optimize(SALE_QUERY).rewrite_result.rules_fired()
        assert db.query(SALE_QUERY).rows == [(25,), (40,)]


class TestSharedLibrary:
    def test_mutating_a_returned_list_or_a_block_never_leaks(self):
        from repro.rules.semantic import simplification_rules
        from repro.rules.syntactic import merging_rules
        first = merging_rules()
        names = [rule.name for rule in first]
        first.clear()
        simplification_rules().append("junk")
        assert [rule.name for rule in merging_rules()] == names
        assert "junk" not in simplification_rules()

        one, other = Database(), Database()
        one.optimizer.rewriter.add_rule(rule_from_text(TIGHTEN),
                                        block="simplify")
        del one.optimizer.rewriter.block("merge").rules[:]
        inventory = other.optimizer.rewriter.rule_inventory()
        assert "tighten" not in inventory["simplify"]
        assert inventory["merge"] == inventory["merge_again"] == names
        assert Database().optimizer.rewriter.rule_inventory() == inventory

    def test_the_library_is_parsed_once(self, monkeypatch):
        import repro.rules.rule as module
        one = Database().optimizer.rewriter
        parsed = []
        real = module.parse_rule_text
        monkeypatch.setattr(
            module, "parse_rule_text",
            lambda source: parsed.append(source) or real(source))
        other = Database().optimizer.rewriter
        assert parsed == []
        for mine, theirs in zip(one.seq.blocks, other.seq.blocks):
            assert mine is not theirs and mine.rules is not theirs.rules
            assert all(a is b for a, b in zip(mine.rules, theirs.rules)
                       if isinstance(a, RewriteRule))

    def test_dynamic_limits_share_the_generated_block(self, monkeypatch):
        """``Optimizer._rewrite_dynamic`` re-limits the semantic block
        per statement: the copy must come with its dispatch."""
        db = sale_db(dynamic_limits=True)
        query = ("SELECT S.Amount FROM SALE S, SALE T "
                 "WHERE S.Shop = T.Shop AND S.Amount > 10 AND T.Amount > 20")
        db.optimize(query)
        generated = []
        real = Block._generate
        monkeypatch.setattr(
            Block, "_generate",
            lambda self: generated.append(self.name) or real(self))
        assert db.optimize(query).rewrite_result.checks  # it did rewrite
        assert generated == []
        block = db.optimizer.rewriter.block("semantic")
        assert block.with_limit(3).dispatch()[0] is block.dispatch()[0]
