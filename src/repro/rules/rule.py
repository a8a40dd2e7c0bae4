"""Rewrite rules: ``lhs / constraints --> rhs / methods`` (section 4.1).

A rule is compiled from its parsed form (:class:`ParsedRule`) into a
:class:`RewriteRule` that can be applied at a term position:

1. the left term is matched against the subject (all bindings are
   enumerated, with backtracking);
2. the constraints are evaluated under the binding -- all must hold;
3. the method calls run in order, each computing bindings for its
   *output* variables (the argument variables not yet bound);
4. the right term is instantiated; an application that reproduces the
   subject is a no-op and the next binding is tried.

Each step is code generated once (:mod:`repro.terms.compile`): a
*matcher* and a *builder* when the rule is built, and the *guard
chain* of steps 2 and 3 -- the constraints and method calls resolved
to closures by the context's :class:`ConstraintEvaluator` and
:class:`MethodRegistry`, which drop them whenever a predicate or a
method is registered, so an unknown method still raises when the rule
is applied, not when it is built.

AC extension: when the left term is a conjunction/disjunction the
compiler appends a fresh collection variable to it and reattaches the
matched remainder around the right term, so a rule like
``f AND false --> false`` applies inside any larger conjunction -- the
standard trick that makes the Figure 11/12 rules work on real
qualifications.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional

from repro.errors import RuleError
from repro.rules.constraints import ConstraintEvaluator
from repro.rules.methods import MethodRegistry
from repro.terms.compile import compile_pattern, compile_template
from repro.terms.parser import ParsedRule, parse_rule_text
from repro.terms.subst import collvar_key
from repro.terms.term import (FUNVARS, CollVar, Fun, Seq, Term, Var,
                              collvars_of, mk_fun, variables_of, walk)

__all__ = ["RewriteRule", "RuleContext", "compile_rule", "rule_from_text",
           "rules_from_texts"]

_REST_VAR = "rest_ac"


class RuleContext:
    """Everything constraint and method evaluation may need.

    ``schemas`` carries the input schemas of the enclosing operator when
    the rule is being tried inside a qualification or projection list
    (supplied by the rewrite engine, which shares one context among all
    positions under the same operator inputs and fixpoint environment
    and computes the schemas only when a rule first reads them); it is
    None elsewhere.
    ``obs`` is the engine's event bus (or None): constraint and method
    evaluation emit ``ConstraintCheck`` / ``MethodCall`` events on it.
    """

    def __init__(self, catalog: object = None,
                 schemas: Optional[list] = None,
                 constraint_evaluator: Optional[ConstraintEvaluator] = None,
                 methods: Optional[MethodRegistry] = None,
                 fix_env: Optional[dict] = None, obs: object = None):
        self.catalog = catalog
        self._schemas = schemas
        self._resolve_schemas: Optional[Callable[[], Optional[list]]] = None
        self.constraint_evaluator = constraint_evaluator
        self.methods = methods
        self.fix_env = {} if fix_env is None else fix_env
        self.obs = obs

    @property
    def schemas(self) -> Optional[list]:
        resolve = self._resolve_schemas
        if resolve is not None:
            self._resolve_schemas = None
            self._schemas = resolve()
        return self._schemas

    def defer_schemas(self,
                      resolve: Callable[[], Optional[list]]) -> None:
        """Have ``schemas`` computed by ``resolve()`` on first read."""
        self._resolve_schemas = resolve

    def evaluator(self) -> ConstraintEvaluator:
        if self.constraint_evaluator is None:
            self.constraint_evaluator = ConstraintEvaluator()
        return self.constraint_evaluator

    def method_registry(self) -> MethodRegistry:
        if self.methods is None:
            from repro.rules.methods import default_method_registry
            self.methods = default_method_registry()
        return self.methods


class RewriteRule:
    """A compiled rewrite rule."""

    def __init__(self, name: str, lhs: Term, constraints: tuple,
                 rhs: Term, methods: tuple, source: str = ""):
        self.name = name
        self.lhs = lhs
        self.constraints = constraints
        self.rhs = rhs
        self.methods = methods
        self.source = source
        # what a block's rule index and quick_applicable read: the root
        # functor (None: a generic or variable root, tried everywhere)
        # and the fixed function symbols strictly inside the left term
        self.root_name = (
            lhs.name
            if isinstance(lhs, Fun) and lhs.name not in FUNVARS
            else None
        )
        self.inner_symbols = frozenset(
            t.name for t in walk(lhs)
            if t is not lhs and isinstance(t, Fun)
            and t.name not in FUNVARS
        )
        self._validate()
        self._match = compile_pattern(lhs)
        self._build = compile_template(rhs)

    def _validate(self) -> None:
        bound = variables_of(self.lhs) | {
            collvar_key(n) for n in collvars_of(self.lhs)
        }
        funvars = _funvars_of(self.lhs)
        # method outputs: argument variables not bound before the call
        for call in self.methods:
            if not isinstance(call, Fun):
                raise RuleError(
                    f"rule {self.name!r}: method call must be a function "
                    f"application, got {call!r}"
                )
            for arg in call.args:
                for sub in walk(arg):
                    if isinstance(sub, Var):
                        bound.add(sub.name)
                    elif isinstance(sub, CollVar):
                        bound.add(collvar_key(sub.name))
        missing = variables_of(self.rhs) - {
            v for v in bound if not v.startswith("*")
        }
        missing_cv = {
            collvar_key(n) for n in collvars_of(self.rhs)
        } - bound
        missing_fv = _funvars_of(self.rhs) - funvars
        if missing or missing_cv or missing_fv:
            names = sorted(missing) + sorted(
                m.lstrip("*") + "*" for m in missing_cv
            ) + sorted(missing_fv)
            raise RuleError(
                f"rule {self.name!r}: right-hand side uses unbound "
                f"variables {names}"
            )

    # -- application ----------------------------------------------------------
    def quick_applicable(self, subject: Term) -> bool:
        """Symbol-level discriminator, used by the engine to skip
        cheaply: the matcher only ever matches a fixed-name pattern
        node against a subject node of the same name, so the root must
        agree and every fixed symbol inside the left term must occur
        inside the subject."""
        if not isinstance(subject, Fun):
            return self.root_name is None and not self.inner_symbols
        if self.root_name is not None and subject.name != self.root_name:
            return False
        return (not self.inner_symbols
                or self.inner_symbols <= subject.symbols)

    def applications(self, subject: Term,
                     ctx: RuleContext) -> Iterator[tuple[Term, dict]]:
        """Yield (result, binding) for every successful application."""
        for binding in self._match(subject):
            if not self._guard(binding, ctx):
                continue
            result = self._build(binding)
            if isinstance(result, Seq):
                raise RuleError(
                    "a collection variable cannot stand alone at the "
                    "top level"
                )
            if result == subject:
                continue  # no-op: saturation reached for this binding
            yield result, binding

    def apply(self, subject: Term,
              ctx: RuleContext) -> Optional[tuple[Term, dict]]:
        """First successful application, or None."""
        for result in self.applications(subject, ctx):
            return result
        return None

    def _guard(self, binding: dict, ctx: RuleContext) -> bool:
        """The constraints, then the method calls, whose outputs join
        ``binding``; False when one of them turns the match down."""
        if self.constraints:
            check = ctx.evaluator().compile
            for constraint in self.constraints:
                if not check(constraint)(binding, ctx):
                    return False
        if self.methods:
            invoke = ctx.method_registry().compile
            for call in self.methods:
                outputs = invoke(call)(binding, ctx)
                if outputs is None:
                    return False
                for key, value in outputs.items():
                    if key in binding and binding[key] != value:
                        raise RuleError(
                            f"rule {self.name!r}: method {call.name} "
                            f"rebinds {key!r}"
                        )
                    binding[key] = value
        return True

    def __repr__(self) -> str:
        return f"RewriteRule({self.name})"


def _funvars_of(term: Term) -> set[str]:
    return {
        t.name for t in walk(term)
        if isinstance(t, Fun) and t.name in FUNVARS
    }


_ANONYMOUS = [0]


def compile_rule(parsed: ParsedRule, source: str = "") -> RewriteRule:
    """Compile a parsed rule, applying the AC extension."""
    name = parsed.name
    if name is None:
        _ANONYMOUS[0] += 1
        name = f"rule_{_ANONYMOUS[0]}"

    lhs, rhs = parsed.lhs, parsed.rhs
    if isinstance(lhs, Fun) and lhs.name in ("AND", "OR"):
        has_collvar = any(isinstance(a, CollVar) for a in lhs.args)
        if not has_collvar:
            rest = CollVar(_REST_VAR)
            lhs = Fun(lhs.name, lhs.args + (rest,))
            rhs = mk_fun(lhs.name, [rhs, rest])
    return RewriteRule(name, lhs, parsed.constraints, rhs,
                       parsed.methods, source)


def rule_from_text(source: str) -> RewriteRule:
    """Parse and compile one rule from text."""
    return compile_rule(parse_rule_text(source), source)


@lru_cache(maxsize=None)
def _library(texts: tuple) -> tuple:
    return tuple(rule_from_text(text) for text in texts)


def rules_from_texts(texts: Iterable[str]) -> list[RewriteRule]:
    """The rules of a library of texts: parsed and compiled once per
    process (a rule is immutable, so every optimizer may share it),
    returned in a list of the caller's own."""
    return list(_library(tuple(texts)))
