"""Substitutions: bindings produced by matching, applied to build terms.

A binding maps variable names to terms and collection-variable names to
:class:`~repro.terms.term.Seq` sequences.  Instantiation runs the
builder :func:`repro.terms.compile.compile_template` generates for the
term, once: collection variables splice into argument lists and AC
nodes re-normalise through :func:`~repro.terms.term.mk_fun`.
"""

from __future__ import annotations

from typing import Mapping, Union

from repro.errors import RuleError
from repro.terms.compile import compile_template
from repro.terms.term import Seq, Term

__all__ = ["Binding", "instantiate", "instantiate_spliceable", "merge_bindings"]

# variable name -> Term; collection variable name (no star) -> Seq
Binding = Mapping[str, Union[Term, Seq]]

_COLLVAR_PREFIX = "*"


def collvar_key(name: str) -> str:
    """Binding key for a collection variable (kept distinct from vars)."""
    return _COLLVAR_PREFIX + name


def instantiate_spliceable(term: Term, binding: Binding,
                           strict: bool = True) -> Union[Term, Seq]:
    """Instantiate ``term``; a bare collection variable yields a Seq."""
    return compile_template(term, strict)(binding)


def instantiate(term: Term, binding: Binding, strict: bool = True) -> Term:
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


def merge_bindings(base: dict, extra: Binding) -> dict:
    """Merge ``extra`` into a copy of ``base``; conflicts raise RuleError."""
    merged = dict(base)
    for key, value in extra.items():
        if key in merged and merged[key] != value:
            raise RuleError(f"conflicting binding for {key!r}")
        merged[key] = value
    return merged
