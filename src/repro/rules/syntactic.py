"""The syntactic rewriting rule library (paper section 5).

Three rule families, each returned as a list so the optimizer builder
can place them in blocks:

* canonicalisation -- rewrite FILTER / PROJECTION / JOIN into the
  compound SEARCH form ("the goal is to provide a compact representation
  for the query using search, union, difference, fixpoint and
  nest/unnest operators");
* merging (Figure 7) -- search merging and union merging;
* permutation (Figure 8) -- push a search through a union and through a
  nest;
* fixpoint reduction (Figure 9 / section 5.3) -- linearize the
  transitive-closure shape and invoke the Alexander method.

Every rule is written in the rule language itself and compiled through
the standard pipeline -- the extensibility claim of the paper is that a
database implementor adds rules exactly like these.  The texts are
parsed and compiled once per process (rules are immutable); each call
returns a fresh list over the same rule objects.
"""

from __future__ import annotations

from repro.rules.rule import RewriteRule, rules_from_texts

__all__ = [
    "canonicalization_rules", "merging_rules", "permutation_rules",
    "fixpoint_rules", "pruning_rules", "or_split_rules",
]


def canonicalization_rules() -> list[RewriteRule]:
    """Rewrite the simple operators into the compound SEARCH form."""
    texts = [
        # a filter is a search keeping every attribute
        "filter_to_search: "
        "FILTER(z, f) / --> SEARCH(LIST(z), f, s) / SCHEMA(z, s)",
        # a projection is a search with an empty qualification
        "projection_to_search: "
        "PROJECTION(z, a) / --> SEARCH(LIST(z), true, a) /",
        # join* is a search keeping the concatenated attributes
        "join_to_search: "
        "JOIN(z, f) / --> SEARCH(z, f, s) / SCHEMA(z, s)",
        # a one-branch union is its branch -- *deduplicated*: UNION has
        # set semantics while the branch may be a bag, so unwrapping
        # must keep the duplicate elimination (found by the repro.qa
        # differential harness; tests/qa_corpus replays the repro)
        "union_singleton: UNION(SET(u)) / --> DISTINCT(u) /",
    ]
    return rules_from_texts(texts)


def merging_rules() -> list[RewriteRule]:
    """Figure 7: search merging and union merging."""
    texts = [
        # [Search Merging Rule]  two stacked searches collapse into one;
        # SUBSTITUTE remaps the outer expressions through the inner
        # projection, SHIFT renumbers the inner qualification
        "search_merge: "
        "SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a) / "
        "--> SEARCH(APPEND(x*, v*, z), f2 AND g2, a2) / "
        "SUBSTITUTE(f, z, f2), SUBSTITUTE(a, z, a2), SHIFT(g, z, g2)",
        # [Union Merging Rule]  nested unions flatten
        "union_merge: "
        "UNION(SET(x*, UNION(z))) / --> UNION(SET_UNION(x*, z)) /",
        # union branches over the same inputs and projection factor
        # into one search with a disjunctive qualification
        "union_factor: "
        "UNION(SET(SEARCH(z, f, a), SEARCH(z, g, a), v*)) / "
        "--> UNION(SET(SEARCH(z, f OR g, a), v*)) /",
        # flattening a freshly built trailing collection is the identity
        # (set semantics): UNNEST(NEST(z)) = z
        "unnest_nest: "
        "UNNEST(NEST(z, a, b), x) / NEST_TRAILING(z, a, x) --> z /",
        # duplicate elimination is idempotent, and redundant over the
        # operators that already deduplicate
        "distinct_idem: DISTINCT(DISTINCT(z)) / --> DISTINCT(z) /",
        "distinct_union: DISTINCT(UNION(z)) / --> UNION(z) /",
        "distinct_fix: DISTINCT(FIX(z, e)) / --> FIX(z, e) /",
        "distinct_intersect: "
        "DISTINCT(INTERSECTION(z)) / --> INTERSECTION(z) /",
        "distinct_diff: "
        "DISTINCT(DIFFERENCE(u, w)) / --> DIFFERENCE(u, w) /",
    ]
    return rules_from_texts(texts)


def permutation_rules() -> list[RewriteRule]:
    """Figure 8: push searches toward the stored relations."""
    texts = [
        # [Search through Union Pushing Rule]  the conjuncts that only
        # reference the union move into every branch.  Selections
        # commute with the union's duplicate elimination; the
        # projection and the other inputs do not (the union is a set,
        # they may be bags), so they stay above it -- the shape of
        # search_distinct_push.  REFER_SPLIT / SUBSTITUTE read the
        # union as a nest with no nested attribute, LIST(); no
        # conjunct on the union, no application
        "search_union_push: "
        "SEARCH(LIST(x*, UNION(SET(u, v*)), y*), f, exp) / "
        "--> SEARCH(LIST(x*, UNION(w), y*), g, exp) / "
        "REFER_SPLIT(f, LIST(), fi, g), SUBSTITUTE(fi, u, LIST(), f2), "
        "SCHEMA(u, s), SEARCH_EACH(SET(u, v*), f2, s, w)",
        # [Search through Nest Pushing Rule]  conjuncts that only
        # reference the non-nested attributes move below the nest
        "search_nest_push: "
        "SEARCH(LIST(x*, NEST(z, a, b), y*), qi* AND qj*, exp) / "
        "REFER(a, qi*) "
        "--> SEARCH(LIST(x*, NEST(SEARCH(LIST(z), qi2, exp2), a, b), y*), "
        "AND(qj*), exp) / "
        "SUBSTITUTE(qi*, z, a, qi2), SCHEMA(z, exp2)",
        # single-conjunct variant: the whole qualification moves
        "search_nest_push_all: "
        "SEARCH(LIST(x*, NEST(z, a, b), y*), f, exp) / REFER(a, f) "
        "--> SEARCH(LIST(x*, NEST(SEARCH(LIST(z), f2, exp2), a, b), y*), "
        "true, exp) / "
        "SUBSTITUTE(f, z, a, f2), SCHEMA(z, exp2)",
        # selections commute with the set operators: filtering the
        # first operand suffices (sigma_f(A - B) = sigma_f(A) - B,
        # sigma_f(A & B) = sigma_f(A) & B)
        "search_diff_push: "
        "SEARCH(LIST(DIFFERENCE(u, w)), f, a) / NONTRUE(f) "
        "--> SEARCH(LIST(DIFFERENCE(SEARCH(LIST(u), f, s), w)), "
        "true, a) / SCHEMA(u, s)",
        "search_intersect_push: "
        "SEARCH(LIST(INTERSECTION(SET(u, v*))), f, a) / "
        "NONTRUE(f), NONEMPTY(v*) "
        "--> SEARCH(LIST(INTERSECTION(SET(SEARCH(LIST(u), f, s), v*))), "
        "true, a) / SCHEMA(u, s)",
        # selections commute with duplicate elimination
        "search_distinct_push: "
        "SEARCH(LIST(DISTINCT(z)), f, a) / NONTRUE(f) "
        "--> SEARCH(LIST(DISTINCT(SEARCH(LIST(z), f, s))), true, a) / "
        "SCHEMA(z, s)",
    ]
    return rules_from_texts(texts)


def pruning_rules() -> list[RewriteRule]:
    """Empty-relation propagation.

    When simplification collapses a qualification to ``false``, the
    surrounding operators are pruned away: the pattern the paper calls
    "predicate elimination [...] in case of inconsistencies" carried to
    the operator level.
    """
    texts = [
        # a search that can never qualify produces the empty relation
        "search_false: SEARCH(z, false, a) / --> u / EMPTYOF(a, u)",
        # a search over any empty input is empty
        "search_empty_input: "
        "SEARCH(LIST(x*, EMPTY(n), y*), f, a) / --> u / EMPTYOF(a, u)",
        # empty union branches disappear
        "union_empty_branch: "
        "UNION(SET(x*, EMPTY(n))) / NONEMPTY(x*) --> UNION(SET(x*)) /",
        # difference and intersection against empty
        "diff_empty_left: DIFFERENCE(EMPTY(n), z) / --> EMPTY(n) /",
        "diff_empty_right: DIFFERENCE(z, EMPTY(n)) / --> z /",
        "intersect_empty: "
        "INTERSECTION(SET(x*, EMPTY(n))) / --> EMPTY(n) /",
        # grouping and flattening of nothing
        "nest_empty: NEST(EMPTY(n), a, b) / --> u / NEST_EMPTY(n, a, u)",
        "unnest_empty: UNNEST(EMPTY(n), x) / --> EMPTY(n) /",
        # a fixpoint with an empty body never produces a tuple
        "fix_empty: FIX(z, EMPTY(n)) / --> EMPTY(n) /",
        "distinct_empty: DISTINCT(EMPTY(n)) / --> EMPTY(n) /",
        # a fixpoint whose base branches were all pruned away is the
        # least fixpoint over an empty base: empty
        "fix_no_base: FIX(z, e) / --> u / FIX_BOTTOM(z, e, u)",
    ]
    return rules_from_texts(texts)


def semijoin_rules() -> list[RewriteRule]:
    """Push selections below semi/anti joins and prune empties.

    A semijoin's output is its left input, so a selection above it
    commutes with it freely.
    """
    texts = [
        "semijoin_push: "
        "SEARCH(LIST(SEMIJOIN(z, w, g)), f, a) / NONTRUE(f) "
        "--> SEARCH(LIST(SEMIJOIN(SEARCH(LIST(z), f, s), w, g)), "
        "true, a) / SCHEMA(z, s)",
        "antijoin_push: "
        "SEARCH(LIST(ANTIJOIN(z, w, g)), f, a) / NONTRUE(f) "
        "--> SEARCH(LIST(ANTIJOIN(SEARCH(LIST(z), f, s), w, g)), "
        "true, a) / SCHEMA(z, s)",
        "semijoin_empty_left: SEMIJOIN(EMPTY(n), w, g) / --> EMPTY(n) /",
        "antijoin_empty_left: ANTIJOIN(EMPTY(n), w, g) / --> EMPTY(n) /",
        # an empty right side keeps nothing / everything
        "semijoin_empty_right: "
        "SEMIJOIN(z, EMPTY(n), g) / --> u / EMPTYOF(z, u)",
        "antijoin_empty_right: ANTIJOIN(z, EMPTY(n), g) / --> z /",
    ]
    return rules_from_texts(texts)


def or_split_rules() -> list[RewriteRule]:
    """Rewrite a top-level disjunction into a union of searches.

    Classic normalisation (set semantics): each disjunct becomes its
    own search so the permutation rules can push it independently.

    NOT installed by default: it is the inverse of ``union_factor``
    (merge block), so a program installing both makes the sequence
    oscillate between the two forms until its pass budget runs out --
    exactly the non-termination hazard section 4.2 warns the database
    implementor about.  Install one or the other.
    """
    texts = [
        "search_or_split: "
        "SEARCH(z, OR(f, g*), a) / NONEMPTY(g*) "
        "--> UNION(SET(SEARCH(z, f, a), SEARCH(z, OR(g*), a))) /",
    ]
    return rules_from_texts(texts)


def fixpoint_rules() -> list[RewriteRule]:
    """Figure 9 / section 5.3: fixpoint reduction."""
    texts = [
        # non-linear transitive closure R = B U p(R o R) becomes the
        # right-linear R = B U p(B o R) so Alexander applies
        "fix_linearize: "
        "FIX(z, UNION(SET(x*, SEARCH(LIST(z, z), f, a)))) / "
        "--> FIX(z, UNION(SET(x*, u))) / LINEARIZE(z, f, a, u)",
        # [Search through Fixpoint Pushing rule]  the Alexander method:
        # ADORNMENT computes the bound-column signature, ALEXANDER builds
        # the reduced (magic) fixpoint u
        "fix_alexander: "
        "SEARCH(LIST(x*, FIX(z, e), y*), f, a) / "
        "--> SEARCH(APPEND(x*, LIST(u), y*), f, a) / "
        "ADORNMENT(z, e, f, s), ALEXANDER(z, e, s, u)",
    ]
    return rules_from_texts(texts)
