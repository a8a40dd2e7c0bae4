"""Unit tests for terms and the normalising constructors."""

import pytest

from repro.errors import TermError
from repro.terms.term import (FALSE, TRUE, AttrRef, CollVar, Const, Fun,
                              Seq, Var, boolean, collvars_of, conj,
                              conjuncts, disj, disjuncts, is_fun,
                              is_ground, mentions, mk_fun, num, replace_at,
                              string,
                              subterms, sym, term_depth, term_size,
                              term_sort_key, variables_of, walk)


class TestTermBasics:
    def test_var_equality(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")

    def test_collvar_strips_star(self):
        cv = CollVar("x*")
        assert cv.name == "x"
        assert cv.display == "x*"
        assert CollVar("x") == CollVar("x*")

    def test_const_kinds(self):
        assert num(3).kind == "int"
        assert num(3.5).kind == "real"
        assert num(True).kind == "bool"  # bools are not ints here
        assert string("a").kind == "string"
        assert sym("REL").kind == "symbol"

    def test_const_bad_kind(self):
        with pytest.raises(TermError):
            Const(1, "complex")

    def test_const_distinguishes_kinds(self):
        assert string("R") != sym("R")
        assert num(1) != boolean(True)

    def test_attref_one_based(self):
        with pytest.raises(TermError):
            AttrRef(0, 1)
        with pytest.raises(TermError):
            AttrRef(1, 0)

    def test_fun_equality_structural(self):
        a = mk_fun("F", [num(1), Var("x")])
        b = mk_fun("F", [num(1), Var("x")])
        assert a == b
        assert hash(a) == hash(b)

    def test_fun_name_uppercased(self):
        assert mk_fun("member", []).name == "MEMBER"

    def test_with_args_is_the_same_term_over_equal_args(self):
        node = mk_fun("F", [mk_fun("G", [num(1)]), Var("x")])
        assert node.symbols and is_ground(node) is False
        copy = node.with_args((mk_fun("G", [num(1)]), Var("x")))
        assert copy is not node and copy == node
        assert hash(copy) == hash(Fun("F", copy.args))
        # every slot is set, and the memos start empty
        for slot in Fun.__slots__ + ("_hash",):
            getattr(copy, slot)
        assert copy._symbols is None and copy._ground is None
        assert copy.symbols == node.symbols


class TestAndOrNormalisation:
    def test_flattening(self):
        inner = mk_fun("AND", [Var("a"), Var("b")])
        outer = mk_fun("AND", [inner, Var("c")])
        assert len(outer.args) == 3

    def test_deduplication(self):
        t = mk_fun("AND", [Var("a"), Var("a"), Var("b")])
        assert len(t.args) == 2

    def test_canonical_order(self):
        ab = mk_fun("AND", [Var("a"), Var("b")])
        ba = mk_fun("AND", [Var("b"), Var("a")])
        assert ab == ba

    def test_true_dropped_from_and(self):
        t = mk_fun("AND", [Var("a"), TRUE])
        assert t == Var("a")

    def test_false_kept_in_and(self):
        t = mk_fun("AND", [Var("a"), FALSE])
        assert is_fun(t, "AND")
        assert FALSE in t.args

    def test_empty_and_is_true(self):
        assert conj([]) == TRUE

    def test_singleton_and_collapses(self):
        assert conj([Var("a")]) == Var("a")

    def test_singleton_and_collvar_survives(self):
        t = mk_fun("AND", [CollVar("q")])
        assert is_fun(t, "AND")  # patterns keep the wrapper

    def test_false_dropped_from_or(self):
        assert mk_fun("OR", [Var("a"), FALSE]) == Var("a")

    def test_empty_or_is_false(self):
        assert disj([]) == FALSE

    def test_conjuncts_of_non_and(self):
        assert conjuncts(Var("a")) == (Var("a"),)
        assert conjuncts(TRUE) == ()

    def test_disjuncts(self):
        t = disj([Var("a"), Var("b")])
        assert set(disjuncts(t)) == {Var("a"), Var("b")}
        assert disjuncts(FALSE) == ()


class TestSetNormalisation:
    def test_set_dedupes_and_sorts(self):
        a = mk_fun("SET", [sym("B"), sym("A"), sym("B")])
        b = mk_fun("SET", [sym("A"), sym("B")])
        assert a == b

    def test_list_keeps_order_and_duplicates(self):
        a = mk_fun("LIST", [sym("B"), sym("A"), sym("B")])
        assert len(a.args) == 3
        assert a != mk_fun("LIST", [sym("A"), sym("B"), sym("B")])


class TestCommutativeComparisons:
    def test_eq_args_sorted(self):
        assert mk_fun("=", [Var("x"), num(1)]) == \
            mk_fun("=", [num(1), Var("x")])

    def test_neq_args_sorted(self):
        assert mk_fun("<>", [Var("y"), Var("x")]) == \
            mk_fun("<>", [Var("x"), Var("y")])

    def test_lt_not_sorted(self):
        assert mk_fun("<", [Var("y"), Var("x")]) != \
            mk_fun("<", [Var("x"), Var("y")])


class TestSplicers:
    def test_seq_splices_into_fun(self):
        t = mk_fun("F", [Seq([num(1), num(2)]), num(3)])
        assert t.args == (num(1), num(2), num(3))

    def test_append_splices_lists(self):
        t = mk_fun("APPEND", [
            Seq([sym("A")]),
            mk_fun("LIST", [sym("B"), sym("C")]),
        ])
        assert is_fun(t, "LIST")
        assert t.args == (sym("A"), sym("B"), sym("C"))

    def test_append_runtime_form_preserved(self):
        # APPEND over non-structural args stays a function call (the
        # runtime list-append ADT function)
        t = mk_fun("APPEND", [Var("l"), num(1)])
        assert is_fun(t, "APPEND")

    def test_set_union_splices(self):
        t = mk_fun("SET_UNION", [
            Seq([sym("A")]), mk_fun("SET", [sym("B")]),
        ])
        assert is_fun(t, "SET")
        assert set(t.args) == {sym("A"), sym("B")}


class TestTraversal:
    def test_walk_counts_nodes(self):
        t = mk_fun("F", [mk_fun("G", [Var("x")]), num(1)])
        assert term_size(t) == 4

    def test_subterms_paths(self):
        t = mk_fun("F", [Var("x"), mk_fun("G", [num(1)])])
        paths = dict(subterms(t))
        assert paths[()] == t
        assert paths[(0,)] == Var("x")
        assert paths[(1, 0)] == num(1)

    def test_replace_at_root(self):
        assert replace_at(Var("x"), (), num(1)) == num(1)

    def test_replace_at_nested(self):
        t = mk_fun("F", [mk_fun("G", [Var("x")])])
        out = replace_at(t, (0, 0), num(9))
        assert out == mk_fun("F", [mk_fun("G", [num(9)])])

    def test_replace_at_renormalises(self):
        t = Fun("AND", (Var("a"), Var("b")))
        out = replace_at(t, (0,), Var("b"))
        assert out == Var("b")  # AND(b, b) collapses

    def test_replace_at_bad_path(self):
        with pytest.raises(TermError):
            replace_at(Var("x"), (0,), num(1))
        with pytest.raises(TermError):
            replace_at(mk_fun("F", [Var("x")]), (5,), num(1))

    def test_variable_collection(self):
        t = mk_fun("F", [Var("x"), CollVar("y"), mk_fun("G", [Var("z")])])
        assert variables_of(t) == {"x", "z"}
        assert collvars_of(t) == {"y"}

    def test_is_ground(self):
        assert is_ground(mk_fun("F", [num(1), string("a")]))
        assert not is_ground(mk_fun("F", [Var("x")]))
        assert not is_ground(mk_fun("F", [CollVar("x")]))


class TestSymbolsBelow:
    """``Fun.symbols``: the function symbols strictly below a node,
    the set rules test their fixed inner symbols against."""

    def test_strictly_below(self):
        t = mk_fun("F", [mk_fun("G", [mk_fun("H", [num(1)])]), Var("x")])
        assert t.symbols == {"G", "H"}  # not F itself
        assert t.args[0].symbols == {"H"}
        assert t.args[0].args[0].symbols == frozenset()

    def test_same_symbol_below_itself(self):
        assert mk_fun("P", [mk_fun("P", [sym("Z")])]).symbols == {"P"}
        assert mk_fun("P", [sym("Z")]).symbols == frozenset()

    def test_ac_flattening_drops_the_nested_connective(self):
        inner = mk_fun("AND", [mk_fun("P", [num(1)]),
                               mk_fun("Q", [num(2)])])
        assert inner.symbols == {"P", "Q"}
        flat = mk_fun("AND", [inner, mk_fun("R", [num(3)])])
        # AND(AND(p, q), r) is AND(p, q, r): no AND below the root
        assert flat.symbols == {"P", "Q", "R"}
        kept = mk_fun("OR", [inner, mk_fun("R", [num(3)])])
        assert kept.symbols == {"AND", "P", "Q", "R"}

    def test_singleton_collapse_and_dedup(self):
        p = mk_fun("P", [mk_fun("G", [num(1)])])
        assert mk_fun("AND", [p, p, TRUE]) is p
        assert mk_fun("W", [mk_fun("AND", [p, p])]).symbols == {"P", "G"}

    def test_replace_at_rebuilds_the_ancestors_only(self):
        left = mk_fun("K", [mk_fun("L", [num(1)])])
        t = mk_fun("F", [left, mk_fun("G", [mk_fun("H", [num(2)])])])
        assert t.symbols == {"K", "L", "G", "H"}  # cached from here on
        out = replace_at(t, (1, 0), mk_fun("M", [mk_fun("N", [num(3)])]))
        assert out.symbols == {"K", "L", "G", "M", "N"}
        assert out.args[1].symbols == {"M", "N"}
        assert out.args[0] is left  # untouched subtree: same node
        assert t.symbols == {"K", "L", "G", "H"}  # the old term keeps its own

    def test_replace_at_through_a_renormalising_parent(self):
        t = mk_fun("W", [mk_fun("AND", [mk_fun("P", [num(1)]),
                                        mk_fun("Q", [num(1)])])])
        assert t.symbols == {"AND", "P", "Q"}
        # P(1) -> Q(1) makes AND(Q(1), Q(1)), which collapses to Q(1)
        out = replace_at(t, (0, 0), mk_fun("Q", [num(1)]))
        assert out == mk_fun("W", [mk_fun("Q", [num(1)])])
        assert out.symbols == {"Q"}

    def test_equal_terms_agree(self):
        a = mk_fun("F", [mk_fun("G", [num(1)])])
        b = mk_fun("F", [mk_fun("G", [num(1)])])
        assert a == b and a is not b
        assert a.symbols == b.symbols == {"G"}


class TestMentions:
    """``mentions``: how often a term names each symbol constant --
    what the fixpoint code asks about a recursive relation."""

    def test_counts_every_occurrence_the_term_itself_included(self):
        assert mentions(sym("R")) == {"R": 1}
        assert mentions(num(1)) == mentions(Var("x")) == {}
        t = mk_fun("SEARCH", [mk_fun("LIST", [sym("R"), sym("S"), sym("R")]),
                              mk_fun("=", [AttrRef(1, 1), string("R")]),
                              mk_fun("LIST", [AttrRef(2, 1)])])
        assert mentions(t) == {"R": 2, "S": 1}  # the string 'R' is no symbol
        assert mentions(t.args[1]) == {}

    def test_agrees_with_a_plain_walk_on_generated_plans(self):
        from collections import Counter
        from tests.generated_plans import generated_queries
        compared = 0
        for db, query in generated_queries(cases=60):
            for t in walk(db.optimize(query).final):
                assert mentions(t) == Counter(
                    str(c.value) for c in walk(t)
                    if isinstance(c, Const) and c.kind == "symbol")
                compared += 1
        assert compared >= 1000

    def test_replace_at_leaves_the_old_terms_answer_alone(self):
        t = mk_fun("F", [mk_fun("G", [sym("R")]), sym("S")])
        assert mentions(t) == {"R": 1, "S": 1}  # cached from here on
        out = replace_at(t, (0, 0), sym("S"))
        assert mentions(out) == {"S": 2}
        assert mentions(t) == {"R": 1, "S": 1}


class TestGroundness:
    """``is_ground``: answered once per node, like ``symbols``."""

    def test_variables_at_any_depth(self):
        assert is_ground(num(1)) and is_ground(AttrRef(1, 2))
        assert not is_ground(Var("x")) and not is_ground(CollVar("x"))
        assert is_ground(mk_fun("F", [mk_fun("G", [num(1)]), sym("S")]))
        assert not is_ground(mk_fun("F", [mk_fun("G", [Var("x")]), sym("S")]))
        assert not is_ground(mk_fun("LIST", [CollVar("x")]))
        assert is_ground(mk_fun("LIST", []))

    def test_agrees_with_a_plain_walk_on_generated_plans_and_rules(self):
        from repro.rules.meta import standard_rule_library
        from tests.generated_plans import generated_queries

        def plain(term):
            return not any(isinstance(t, (Var, CollVar)) for t in walk(term))

        terms = [side for rule in standard_rule_library().values()
                 if hasattr(rule, "lhs") for side in (rule.lhs, rule.rhs)]
        terms += [db.optimize(query).final
                  for db, query in generated_queries(cases=40)]
        compared = 0
        for term in terms:
            for t in walk(term):
                assert is_ground(t) == plain(t)
                assert is_ground(t) == plain(t)  # and again, cached
                compared += 1
        assert compared >= 1000

    def test_replace_at_leaves_the_old_terms_answer_alone(self):
        t = mk_fun("F", [mk_fun("G", [num(1)]), sym("S")])
        assert is_ground(t)  # cached from here on
        out = replace_at(t, (0, 0), Var("x"))
        assert not is_ground(out) and is_ground(t)


def _copy(term):
    """A structurally equal term sharing no ``Fun`` node."""
    if isinstance(term, Fun):
        return Fun(term.name, tuple(_copy(a) for a in term.args))
    return term


def _recursive_eq(a, b):
    """The textbook definition ``Fun.__eq__`` must agree with."""
    if isinstance(a, Fun):
        return (isinstance(b, Fun) and a.name == b.name
                and len(a.args) == len(b.args)
                and all(_recursive_eq(x, y)
                        for x, y in zip(a.args, b.args)))
    return not isinstance(b, Fun) and a == b


class TestEqualityIsIterative:
    """``Fun.__eq__`` compares hashes, then walks an explicit stack:
    same answers as the recursive definition, at any depth."""

    def test_agrees_with_the_recursive_definition_on_generated_plans(self):
        from tests.generated_plans import generated_queries
        compared = 0
        for db, query in generated_queries(cases=30):
            nodes = [t for t in walk(db.optimize(query).final)
                     if isinstance(t, Fun)]
            for t, other in zip(nodes, nodes[1:] + nodes[:1]):
                twin = _copy(t)
                assert twin == t and hash(twin) == hash(t)
                assert (t == other) == _recursive_eq(t, other)
                assert (hash(t) == hash(other)) or t != other
                compared += 1
        assert compared >= 500

    def test_one_leaf_apart_is_unequal_at_any_position(self):
        t = mk_fun("F", [mk_fun("G", [num(1), sym("R")]),
                         mk_fun("H", [AttrRef(1, 2)])])
        for path, leaf in subterms(t):
            if isinstance(leaf, Fun):
                continue
            changed = replace_at(_copy(t), path, num(99))
            assert changed != t and not _recursive_eq(changed, t)

    def test_a_colliding_hash_is_still_decided_structurally(self):
        a = mk_fun("F", [num(1)])
        b = mk_fun("F", [num(2)])
        b._hash = a._hash  # force the slow path
        assert a != b
        c = _copy(a)
        assert a == c

    def test_depth_beyond_the_recursion_limit(self):
        import sys
        deep = other = num(0)
        for __ in range(sys.getrecursionlimit() * 3):
            deep = Fun("S", (deep,))
            other = Fun("S", (other,))
        assert deep == other and deep is not other
        assert deep != Fun("S", (other,))
        assert term_depth(deep) == sys.getrecursionlimit() * 3 + 1

    def test_term_depth(self):
        assert term_depth(num(1)) == term_depth(mk_fun("F", [])) == 1
        t = mk_fun("F", [num(1), mk_fun("G", [mk_fun("H", [sym("R")])])])
        assert term_depth(t) == 4


class TestSortKey:
    def test_total_order_is_deterministic(self):
        terms = [num(2), Var("a"), sym("R"), string("z"), TRUE,
                 AttrRef(1, 2), mk_fun("F", [num(1)]), CollVar("c")]
        once = sorted(terms, key=term_sort_key)
        twice = sorted(list(reversed(terms)), key=term_sort_key)
        assert once == twice

    def test_constants_before_funs(self):
        assert term_sort_key(num(1)) < term_sort_key(mk_fun("F", []))
