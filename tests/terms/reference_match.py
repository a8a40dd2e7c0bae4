"""The matcher and the instantiation the rule language shipped with.

Test-only reference for :mod:`repro.terms.compile`: a backtracking
interpreter of patterns (one dict copied per bound variable) and a
recursive rebuild of templates through ``mk_fun``.  Nothing here is
compiled, cached or specialised, so it is the plain statement of the
matching semantics -- and of the *order* in which bindings are
enumerated, which decides which application of a rule fires.  The
generated matchers and builders must agree with it binding for
binding (``test_compiled_match.py``).

Enumeration order: inside unordered functions, the *first* collection
variable of a pattern is offered the largest sub-multisets first.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence, Union

from repro.errors import RuleError
from repro.terms.subst import collvar_key
from repro.terms.term import (AC_FUNS, FUNVARS, AttrRef, CollVar, Const,
                              Fun, Seq, Term, Var, mk_fun)

__all__ = ["match", "match_first", "matches", "instantiate",
           "instantiate_spliceable"]

# structural constructors that a generic function symbol must not match
_NON_GENERIC_FUNS = frozenset(
    {"LIST", "SET", "AND", "OR", "AS", "TUPLE"}
) | FUNVARS


def match(pattern: Term, subject: Term,
          binding: Optional[dict] = None) -> Iterator[dict]:
    """Yield every binding under which ``pattern`` matches ``subject``."""
    yield from _match(pattern, subject, dict(binding or {}))


def match_first(pattern: Term, subject: Term,
                binding: Optional[dict] = None) -> Optional[dict]:
    """The first matching binding, or None."""
    for b in match(pattern, subject, binding):
        return b
    return None


def matches(pattern: Term, subject: Term) -> bool:
    return match_first(pattern, subject) is not None


def _match(pattern: Term, subject: Term, binding: dict) -> Iterator[dict]:
    if isinstance(pattern, Var):
        bound = binding.get(pattern.name)
        if bound is None:
            child = dict(binding)
            child[pattern.name] = subject
            yield child
        elif bound == subject:
            yield binding
        return

    if isinstance(pattern, CollVar):
        raise RuleError(
            f"collection variable {pattern.display} may only appear inside "
            f"an argument list"
        )

    if isinstance(pattern, (Const, AttrRef)):
        if pattern == subject:
            yield binding
        return

    if isinstance(pattern, Fun):
        if pattern.name in FUNVARS:
            # second-order matching: F(x, ...) matches any function
            # application of the same shape, binding the function name
            if not isinstance(subject, Fun) or \
                    subject.name in _NON_GENERIC_FUNS:
                return
            key = "§" + pattern.name
            bound = binding.get(key)
            if bound is not None and bound != subject.name:
                return
            child = dict(binding)
            child[key] = subject.name
            yield from _match_seq(pattern.args, subject.args, child)
            return
        if not isinstance(subject, Fun) or subject.name != pattern.name:
            return
        if pattern.name in AC_FUNS:
            yield from _match_unordered(pattern.args, subject.args, binding)
        else:
            yield from _match_seq(pattern.args, subject.args, binding)
        return

    raise RuleError(f"invalid pattern {pattern!r}")


def _quick_reject(pattern: Term, subject: Term, binding: dict) -> bool:
    """Cheap discriminator to prune backtracking branches."""
    if isinstance(pattern, Fun):
        if pattern.name in FUNVARS:
            return not isinstance(subject, Fun)
        return not (isinstance(subject, Fun) and subject.name == pattern.name)
    if isinstance(pattern, (Const, AttrRef)):
        return pattern != subject
    if isinstance(pattern, Var):
        bound = binding.get(pattern.name)
        return bound is not None and bound != subject
    return False


# ---------------------------------------------------------------------------
# ordered argument lists
# ---------------------------------------------------------------------------

def _match_seq(patterns: Sequence[Term], subjects: Sequence[Term],
               binding: dict) -> Iterator[dict]:
    # early arity pruning: every non-collvar pattern consumes one subject
    plain = sum(1 for p in patterns if not isinstance(p, CollVar))
    if plain > len(subjects):
        return
    if plain == len(subjects) and not any(
        isinstance(p, CollVar) for p in patterns
    ) and len(patterns) != len(subjects):
        return
    yield from _match_seq_rec(tuple(patterns), tuple(subjects), binding)


def _match_seq_rec(patterns: tuple, subjects: tuple,
                   binding: dict) -> Iterator[dict]:
    if not patterns:
        if not subjects:
            yield binding
        return
    head, rest = patterns[0], patterns[1:]
    if isinstance(head, CollVar):
        key = collvar_key(head.name)
        bound = binding.get(key)
        if bound is not None:
            items = bound.items
            if subjects[:len(items)] == items:
                yield from _match_seq_rec(rest, subjects[len(items):], binding)
            return
        remaining_plain = sum(
            1 for p in rest if not isinstance(p, CollVar)
        )
        max_take = len(subjects) - remaining_plain
        for take in range(max_take + 1):
            child = dict(binding)
            child[key] = Seq(subjects[:take])
            yield from _match_seq_rec(rest, subjects[take:], child)
        return
    if not subjects or _quick_reject(head, subjects[0], binding):
        return
    for b in _match(head, subjects[0], binding):
        yield from _match_seq_rec(rest, subjects[1:], b)


# ---------------------------------------------------------------------------
# unordered argument lists (SET, AND, OR)
# ---------------------------------------------------------------------------

def _match_unordered(patterns: Sequence[Term], subjects: Sequence[Term],
                     binding: dict) -> Iterator[dict]:
    plain = [p for p in patterns if not isinstance(p, CollVar)]
    collvars = [p for p in patterns if isinstance(p, CollVar)]

    # Pre-consume collection variables that are already bound.
    remaining = list(subjects)
    free_collvars: list[CollVar] = []
    for cv in collvars:
        bound = binding.get(collvar_key(cv.name))
        if bound is None:
            free_collvars.append(cv)
            continue
        for item in bound.items:
            try:
                remaining.remove(item)
            except ValueError:
                return  # bound sequence not contained in the subject
    if len(plain) > len(remaining):
        return
    if not free_collvars and len(plain) != len(remaining):
        return
    yield from _match_plain_then_distribute(
        plain, free_collvars, remaining, binding
    )


def _match_plain_then_distribute(plain: list, collvars: list,
                                 remaining: list,
                                 binding: dict) -> Iterator[dict]:
    if plain:
        head, rest = plain[0], plain[1:]
        for i, candidate in enumerate(remaining):
            if _quick_reject(head, candidate, binding):
                continue
            next_remaining = remaining[:i] + remaining[i + 1:]
            for b in _match(head, candidate, binding):
                yield from _match_plain_then_distribute(
                    rest, collvars, next_remaining, b
                )
        return

    if not collvars:
        if not remaining:
            yield binding
        return

    if len(collvars) == 1:
        child = dict(binding)
        child[collvar_key(collvars[0].name)] = Seq(remaining)
        yield child
        return

    # Several free collection variables: give the first one sub-multisets
    # in decreasing size order, recurse on the rest.
    head_cv, rest_cvs = collvars[0], collvars[1:]
    indices = range(len(remaining))
    for size in range(len(remaining), -1, -1):
        for combo in itertools.combinations(indices, size):
            taken = [remaining[i] for i in combo]
            left = [remaining[i] for i in indices if i not in combo]
            child = dict(binding)
            child[collvar_key(head_cv.name)] = Seq(taken)
            yield from _match_plain_then_distribute(
                [], rest_cvs, left, child
            )


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

def instantiate_spliceable(term: Term, binding: dict,
                           strict: bool = True) -> Union[Term, Seq]:
    """Instantiate ``term``; a bare collection variable yields a Seq."""
    if isinstance(term, Var):
        value = binding.get(term.name)
        if value is None:
            if strict:
                raise RuleError(f"unbound variable {term.name!r}")
            return term
        return value
    if isinstance(term, CollVar):
        value = binding.get(collvar_key(term.name))
        if value is None:
            if strict:
                raise RuleError(f"unbound collection variable {term.display}")
            return term
        return value
    if isinstance(term, (Const, AttrRef)):
        return term
    if isinstance(term, Fun):
        name = term.name
        if name in FUNVARS:
            bound_name = binding.get("§" + name)
            if bound_name is None:
                if strict:
                    raise RuleError(
                        f"unbound generic function symbol {name}"
                    )
            else:
                name = bound_name
        return mk_fun(
            name,
            [instantiate_spliceable(a, binding, strict) for a in term.args],
        )
    raise RuleError(f"cannot instantiate {term!r}")


def instantiate(term: Term, binding: dict, strict: bool = True) -> Term:
    """Instantiate ``term`` under ``binding``; the result must be a term.

    With ``strict=False`` unbound variables are left in place (useful for
    partial instantiation in tests and in method implementations).
    """
    result = instantiate_spliceable(term, binding, strict)
    if isinstance(result, Seq):
        raise RuleError(
            "a collection variable cannot stand alone at the top level"
        )
    return result
