"""Structural matching with collection variables (the PROLOG role).

The semantics section 4.1 needs:

* ordinary variables match exactly one term (non-linear patterns are
  supported -- a repeated variable must match equal terms);
* collection variables (``x*``) match a *sub-sequence* of the argument
  list inside ordered functions (``LIST`` and any uninterpreted
  function), and a *sub-multiset* inside the unordered functions
  (``SET`` and the connectives ``AND`` / ``OR``);
* matching inside unordered functions is performed modulo permutation
  (AC matching), with backtracking: :func:`match` iterates over all
  bindings, so the rewrite engine can reject a candidate (constraint
  failure, no-op result) and resume the search;
* a function variable (``F`` .. ``K``) matches any function
  application of the same shape other than the structural
  constructors, binding the function name under ``§F``.

Enumeration order is tuned for the rule library: inside unordered
functions, the *first* collection variable of a pattern is offered the
largest sub-multisets first, which makes rules of the form
``quali* AND qualj*`` (Figure 8, search-through-nest) push the maximal
set of conjuncts in one application.

A pattern is matched by the function :mod:`repro.terms.compile`
generates for it, once; the functions here look that matcher up.  The
backtracking interpreter that defines the order lives on as the test
oracle ``tests/terms/reference_match.py``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.terms.compile import compile_pattern, pattern_keys
from repro.terms.term import Term

__all__ = ["match", "match_first", "matches"]


def match(pattern: Term, subject: Term,
          binding: Optional[dict] = None) -> Iterator[dict]:
    """Yield every binding under which ``pattern`` matches ``subject``."""
    if not binding:
        return compile_pattern(pattern)(subject)
    bound = frozenset(key for key in pattern_keys(pattern)
                      if binding.get(key) is not None)
    return compile_pattern(pattern, bound)(subject, binding)


def match_first(pattern: Term, subject: Term,
                binding: Optional[dict] = None) -> Optional[dict]:
    """The first matching binding, or None."""
    for b in match(pattern, subject, binding):
        return b
    return None


def matches(pattern: Term, subject: Term) -> bool:
    return match_first(pattern, subject) is not None
