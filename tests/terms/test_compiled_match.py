"""The generated matchers and builders against the interpreter.

:mod:`repro.terms.compile` may change what a match or an instantiation
costs and nothing else: for every pattern and subject the generated
matcher must yield the bindings ``tests/terms/reference_match.py``
yields -- equal dicts with equal key order, in the same *sequence*,
because the first binding that survives the constraints is the
application that fires -- and a generated builder must build the term
the recursive ``mk_fun`` rebuild builds, or raise the same error.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuleError
from repro.rules.antipattern import antipattern_rules
from repro.rules.meta import standard_rule_library
from repro.terms.compile import compile_pattern
from repro.terms.match import match
from repro.terms.parser import parse_term
from repro.terms.subst import instantiate, instantiate_spliceable
from repro.terms.term import (AttrRef, CollVar, Fun, Seq, Var, mk_fun, num,
                              sym, walk)

from tests.generated_plans import generated_queries
from tests.terms import reference_match as reference

# the bindings of one match are finite but can be many (three
# collection variables over n arguments: 3^n); the head is enough to
# pin the order
HEAD = 200


def sequence(matcher, pattern, subject, pre=None):
    """The binding sequence (each with its key order), or the error."""
    try:
        return [(list(b), b)
                for b in islice(matcher(pattern, subject, pre), HEAD)]
    except RuleError as error:
        return type(error)


def assert_same_matches(pattern, subject, pre=None):
    ours = sequence(match, pattern, subject, pre)
    theirs = sequence(reference.match, pattern, subject, pre)
    assert ours == theirs, (pattern, subject, pre)
    return theirs


def shipped_patterns():
    rules = list(standard_rule_library().values()) + antipattern_rules()
    return [(rule.name, rule.lhs) for rule in rules
            if hasattr(rule, "lhs")]


def plan_subterms(db, query):
    """Every subterm of every plan the query passes through."""
    optimized = db.optimize(query)
    plans = {optimized.typed, optimized.final}
    for entry in optimized.trace:
        plans.update((entry.before, entry.after))
    return {sub for plan in plans for sub in walk(plan)}


class TestShippedRules:
    def test_every_rule_on_every_subterm(self):
        """Every shipped left term x every subterm of every plan of the
        300-case fuzz sweep and of every perf template."""
        patterns = shipped_patterns()
        assert len(patterns) >= 95
        seen: set = set()
        matched = set()
        for db, query in generated_queries(cases=300):
            fresh = plan_subterms(db, query) - seen
            seen |= fresh
            for name, pattern in patterns:
                for subject in fresh:
                    if assert_same_matches(pattern, subject):
                        matched.add(name)
        assert len(seen) > 4000
        # the sweep exercises matching, not only declining
        assert len(matched) >= 40, sorted(matched)

    def test_matchers_are_generated_once(self):
        pattern = parse_term("SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a)")
        assert compile_pattern(pattern) is compile_pattern(
            parse_term("SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a)"))
        source = compile_pattern(pattern).__source__
        assert source.count("for ") == 1  # x*, P, v*: one loop
        assert "dict(" not in source


# -- generated patterns --------------------------------------------------------

VARS = [Var(n) for n in "xyz"]
COLLVARS = [CollVar(n) for n in "uvw"]
ATOMS = [num(1), num(2), sym("A"), AttrRef(1, 2)]
HEADS = ["P", "Q", "LIST", "SET", "AND", "OR", "F", "G"]


def patterns(max_collvars=3):
    """Raw (un-normalised) pattern terms: plain, ordered and unordered
    heads, function variables, repeated variables, and at most
    ``max_collvars`` collection-variable occurrences per argument
    list."""
    def node(children):
        def build(head, plain, stars, order):
            args = plain + stars[:max_collvars]
            args = [args[i % len(args)] for i in order] if args else []
            return Fun(head, tuple(args[:5]))
        return st.builds(
            build, st.sampled_from(HEADS),
            st.lists(children, max_size=3),
            st.lists(st.sampled_from(COLLVARS), max_size=3),
            st.lists(st.integers(0, 7), min_size=1, max_size=5),
        )
    leaves = st.sampled_from(VARS + ATOMS)
    return st.recursive(leaves, node, max_leaves=8)


def subjects():
    """Ground terms over the same signature, normalised as every term
    the rewriter sees is."""
    leaves = st.sampled_from(ATOMS)
    return st.recursive(
        leaves,
        lambda children: st.builds(
            mk_fun, st.sampled_from(["P", "Q", "LIST", "SET", "AND", "OR"]),
            st.lists(children, max_size=4)),
        max_leaves=10)


@st.composite
def pattern_and_instance(draw):
    """A pattern with a subject it is likely to match: the pattern
    itself under a drawn ground binding."""
    pattern = draw(patterns())
    binding = {}
    for t in walk(pattern):
        if isinstance(t, Var):
            binding.setdefault(t.name, draw(subjects()))
        elif isinstance(t, CollVar):
            binding.setdefault(
                "*" + t.name, Seq(draw(st.lists(subjects(), max_size=2))))
        elif isinstance(t, Fun) and t.name in "FGHIJK":
            binding.setdefault("§" + t.name, draw(st.sampled_from("PQ")))
    return pattern, reference.instantiate_spliceable(pattern, binding)


class TestGeneratedPatterns:
    @settings(max_examples=400, deadline=None)
    @given(patterns(), subjects())
    def test_random_pairs(self, pattern, subject):
        assert_same_matches(pattern, subject)

    @settings(max_examples=400, deadline=None)
    @given(pattern_and_instance(), st.data())
    def test_instances_and_prebindings(self, pair, data):
        pattern, subject = pair
        found = assert_same_matches(pattern, subject)
        if isinstance(found, list) and found:
            # resume from part of a binding that matched
            __, binding = found[0]
            keys = data.draw(st.sets(st.sampled_from(
                sorted(binding) or ["unrelated"])))
            pre = {k: binding[k] for k in sorted(keys) if k in binding}
            pre["unrelated"] = num(9)
            assert_same_matches(pattern, subject, pre)

    def test_a_bare_collection_variable_is_refused_when_matched(self):
        with pytest.raises(RuleError):
            list(match(CollVar("x"), num(1)))
        with pytest.raises(RuleError):
            list(reference.match(CollVar("x"), num(1)))

    def test_more_choice_points_than_python_nests_loops(self):
        """Twenty-four conjuncts: the matcher continues in a second
        generated function past sixteen loops."""
        names = [f"p{i}" for i in range(24)]
        pattern = Fun("AND", tuple(
            Fun("P", (num(i), Var(n))) for i, n in enumerate(names)))
        subject = mk_fun("AND", [
            Fun("P", (num(i), sym(n.upper())))
            for i, n in enumerate(names)])
        found = assert_same_matches(pattern, subject)
        assert len(found) == 1
        assert "yield from" in compile_pattern(pattern).__source__
        assert_same_matches(pattern, mk_fun("AND", subject.args[1:]))


# -- builders -------------------------------------------------------------------

def built(instantiator, template, binding, strict):
    try:
        return instantiator(template, binding, strict)
    except RuleError as error:
        return type(error)


class TestBuilders:
    @settings(max_examples=400, deadline=None)
    @given(pattern_and_instance(), st.booleans(), st.data())
    def test_builds_what_the_recursive_rebuild_builds(self, pair, strict,
                                                      data):
        template, subject = pair
        found = sequence(reference.match, template, subject)
        binding = dict(found[0][1]) if isinstance(found, list) and found \
            else {}
        for key in data.draw(st.sets(st.sampled_from(
                sorted(binding) or ["x"]))):
            binding.pop(key, None)  # unbound: an error, or left in place
        assert built(instantiate_spliceable, template, binding, strict) \
            == built(reference.instantiate_spliceable, template, binding,
                     strict)
        assert built(instantiate, template, binding, strict) \
            == built(reference.instantiate, template, binding, strict)

    def test_every_shipped_right_term(self):
        """Each rule's right term under the first binding of its own
        left term matched against itself (variables standing for
        themselves)."""
        rules = [rule for rule in list(standard_rule_library().values())
                 + antipattern_rules() if hasattr(rule, "rhs")]
        for rule in rules:
            for binding in islice(reference.match(rule.lhs, rule.lhs), 3):
                assert built(instantiate, rule.rhs, binding, False) == \
                    built(reference.instantiate, rule.rhs, binding, False)
