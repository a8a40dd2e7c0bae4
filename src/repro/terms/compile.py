"""The rule compiler: patterns and templates become Python functions.

The paper's optimizer is *generated* from its rules (section 4.2; EDS
compiled them to PROLOG clauses).  This module is that generation step
for the two term-shaped halves of a rule:

* :func:`compile_pattern` turns a left term into a generator function
  ``matcher(subject, pre=None)`` yielding one binding dict per way the
  pattern matches -- the semantics :mod:`repro.terms.match` documents
  (non-linear variables, collection variables inside ordered and
  unordered argument lists, ``F`` .. ``K`` function variables), in
  exactly the order the backtracking interpreter
  (``tests/terms/reference_match.py``) enumerates them, because that
  order decides which application of a rule fires;
* :func:`compile_template` turns a right term (or a constraint /
  method argument) into ``build(binding)``, which calls the
  normalising constructor :func:`~repro.terms.term.mk_fun` only at the
  nodes that need it: ``AND`` / ``OR`` / ``SET``, the commutative
  comparisons, the ``APPEND`` / ``SET_UNION`` splicers and bound
  function variables.

Both emit Python source and ``exec`` it once; the source is kept on the
function as ``__source__``.

What the generated matcher looks like: tests are guard clauses
(``if type(s) is not Fun or s.name != 'SEARCH': return``), fixed-arity
children are read by index, every choice point of the interpreter is
one ``for`` loop -- the candidates of a plain pattern inside ``AND`` /
``OR`` / ``SET``, the split point of a collection variable that is
not the last one of its ordered list -- and everything after a choice
point is nested inside its loop, so a failing test is ``continue``.  A
variable's value stays in the locals it was read from (``a1[2]``,
``a1[:e3]``); one dict is built per *successful* match, under the
binding keys ``x`` / ``*x`` / ``§F``.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

from repro.errors import RuleError
from repro.terms.term import (AC_FUNS, FUNVARS, NORMALISED_FUNS, AttrRef,
                              CollVar, Const, Fun, Seq, Term, Var, mk_fun,
                              splice, walk)

__all__ = ["compile_pattern", "compile_template", "pattern_keys"]

Matcher = Callable[..., Iterator[dict]]
Builder = Callable[[dict], Union[Term, Seq]]

# structural constructors that a generic function symbol must not match
_NON_GENERIC_FUNS = frozenset(
    {"LIST", "SET", "AND", "OR", "AS", "TUPLE"}
) | FUNVARS

# the interpreter's nesting limit for loops is 20; past this depth the
# rest of a matcher continues in a second generated function
_MAX_LOOPS = 16

_HERE = os.path.dirname(os.path.abspath(__file__))
_serial = itertools.count(1)


def pattern_keys(pattern: Term) -> frozenset:
    """The binding keys a match of ``pattern`` defines."""
    keys = set()
    for t in walk(pattern):
        if isinstance(t, Var):
            keys.add(t.name)
        elif isinstance(t, CollVar):
            keys.add("*" + t.name)
        elif isinstance(t, Fun) and t.name in FUNVARS:
            keys.add("§" + t.name)
    return frozenset(keys)


# ---------------------------------------------------------------------------
# helpers the generated code calls
# ---------------------------------------------------------------------------

def _remove_items(args: tuple, items: tuple) -> Optional[tuple]:
    """``args`` without one occurrence of each of ``items`` (a bound
    collection variable inside an unordered list); None when one is
    missing."""
    remaining = list(args)
    for item in items:
        try:
            remaining.remove(item)
        except ValueError:
            return None
    return tuple(remaining)


def _without(args: tuple, *skip: int) -> tuple:
    return tuple(a for i, a in enumerate(args) if i not in skip)


def _split(args: tuple, combo: tuple) -> tuple:
    """``(taken, left)``: the elements of ``args`` at the indices
    ``combo`` and the others, both in order."""
    return (tuple(args[i] for i in combo),
            tuple(a for i, a in enumerate(args) if i not in combo))


def _unbound(key: str) -> RuleError:
    if key.startswith("*"):
        return RuleError(f"unbound collection variable {key[1:]}*")
    if key.startswith("§"):
        return RuleError(f"unbound generic function symbol {key[1:]}")
    return RuleError(f"unbound variable {key!r}")


_NAMESPACE = {
    "Fun": Fun, "Const": Const, "AttrRef": AttrRef, "Seq": Seq,
    "RuleError": RuleError, "mk_fun": mk_fun, "splice": splice,
    "combinations": itertools.combinations,
    "NON_GENERIC": _NON_GENERIC_FUNS,
    "remove_items": _remove_items, "without": _without, "split": _split,
    "unbound": _unbound,
}


class _Source:
    """Python source under construction.  A matcher's code only ever
    nests (what follows a test or a loop is emitted inside it), so the
    text grows line by line at a depth that never decreases; when the
    loops of one function reach ``_MAX_LOOPS`` the rest is emitted
    into a continuation function that receives the locals so far."""

    def __init__(self, name: str, params: str):
        self.name = name
        self.namespace = dict(_NAMESPACE)
        self.finished: list[str] = []
        self.lines = [f"def {name}({params}):"]
        self.depth = 0       # loops open in the current function
        self.locals: list[str] = []
        self.serial = 0

    def fresh(self, prefix: str) -> str:
        self.serial += 1
        return f"{prefix}{self.serial}"

    def const(self, value: object) -> str:
        name = self.fresh("K")
        self.namespace[name] = value
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * (self.depth + 1) + text)

    def assign(self, prefix: str, expr: str) -> str:
        name = self.fresh(prefix)
        self.line(f"{name} = {expr}")
        self.locals.append(name)
        return name

    def local(self, expr: str) -> str:
        """``expr`` itself when it already is a local, else a new one."""
        return expr if expr.isidentifier() else self.assign("s", expr)

    def require(self, condition: str) -> None:
        """What follows runs only when ``condition`` holds."""
        self.line(f"if not ({condition}):")
        self.lines.append("    " * (self.depth + 2)
                          + ("continue" if self.depth else "return"))

    def loop(self, variable: str, iterable: str) -> None:
        if self.depth == _MAX_LOOPS:
            rest = self.fresh(self.name + "_")
            arguments = ", ".join(self.locals)
            self.line(f"yield from {rest}({arguments})")
            self.finished.append("\n".join(self.lines))
            self.lines = [f"def {rest}({arguments}):"]
            self.depth = 0
        self.line(f"for {variable} in {iterable}:")
        self.depth += 1
        self.locals.append(variable)

    def build(self):
        self.finished.append("\n".join(self.lines))
        source = "\n\n".join(reversed(self.finished)) + "\n"
        # a file name under this package: call profiles attribute the
        # generated code to the layer that generated it
        filename = os.path.join(
            _HERE, f"<generated {self.name} #{next(_serial)}>")
        exec(compile(source, filename, "exec"), self.namespace)
        function = self.namespace[self.name]
        function.__source__ = source
        return function


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2048)
def compile_pattern(pattern: Term,
                    bound: Optional[frozenset] = None) -> Matcher:
    """The matcher of ``pattern``: ``matcher(subject)`` yields the
    bindings under which the pattern matches the subject.  With
    ``bound`` -- the keys of the pattern a pre-binding defines -- the
    matcher is ``matcher(subject, pre)`` and extends the dict ``pre``."""
    src = _Source("match", "s0" if bound is None else "s0, pre")
    src.locals.append("s0")
    env: dict = {}
    if bound is not None:
        src.locals.append("pre")
        for key in sorted(bound):
            value = f"pre[{key!r}]"
            env[key] = src.assign("p", value + ".items"
                                  if key.startswith("*") else value)
    given = dict(env)
    yields = []

    def succeed(env: dict) -> None:
        yields.append(True)
        items = [] if bound is None else ["**pre"]
        for key, expr in env.items():
            if given.get(key) != expr:
                items.append(f"{key!r}: Seq({expr})"
                             if key.startswith("*") else f"{key!r}: {expr}")
        src.line("yield {" + ", ".join(items) + "}")

    _match_term(src, pattern, "s0", env, succeed)
    if not yields:  # it only raises: when iterated, like any matcher
        src.lines.append("    yield")
    return src.build()


def _match_term(src: _Source, pattern: Term, subject: str, env: dict,
                then: Callable[[dict], None]) -> None:
    """Emit the match of ``pattern`` against the term the expression
    ``subject`` denotes; ``then(env)`` emits what follows a success.
    ``env`` maps each binding key defined so far to the expression of
    its value (a collection variable's: the tuple of its items)."""
    if isinstance(pattern, Var):
        known = env.get(pattern.name)
        if known is None:
            then({**env, pattern.name: subject})
        else:
            src.require(f"{known} == {subject}")
            then(env)
    elif isinstance(pattern, Const):
        s = src.local(subject)
        src.require(f"type({s}) is Const and {s}.value == "
                    f"{src.const(pattern.value)} and "
                    f"{s}.kind == {pattern.kind!r}")
        then(env)
    elif isinstance(pattern, AttrRef):
        s = src.local(subject)
        src.require(f"type({s}) is AttrRef and {s}.rel == {pattern.rel} "
                    f"and {s}.pos == {pattern.pos}")
        then(env)
    elif isinstance(pattern, CollVar):
        message = (f"collection variable {pattern.display} may only "
                   f"appear inside an argument list")
        src.line(f"raise RuleError({message!r})")
    elif not isinstance(pattern, Fun):
        src.line(f"raise RuleError({f'invalid pattern {pattern!r}'!r})")
    elif pattern.name in FUNVARS:
        # second-order matching: F(x, ...) matches any function
        # application of the same shape, binding the function name
        s = src.local(subject)
        src.require(f"type({s}) is Fun and {s}.name not in NON_GENERIC")
        key = "§" + pattern.name
        known = env.get(key)
        if known is None:
            env = {**env, key: f"{s}.name"}
        else:
            src.require(f"{known} == {s}.name")
        _match_ordered(src, pattern.args, src.assign("a", f"{s}.args"),
                       env, then)
    else:
        s = src.local(subject)
        src.require(f"type({s}) is Fun and {s}.name == {pattern.name!r}")
        args = src.assign("a", f"{s}.args")
        if pattern.name in AC_FUNS:
            _match_unordered(src, pattern.args, args, env, then)
        else:
            _match_ordered(src, pattern.args, args, env, then)


def _match_ordered(src: _Source, patterns: tuple, args: str, env: dict,
                   then: Callable[[dict], None]) -> None:
    """Ordered argument lists: a collection variable takes a
    sub-sequence, shortest first."""
    plain_after = [0] * (len(patterns) + 1)   # plain patterns from i on
    for i in range(len(patterns) - 1, -1, -1):
        plain_after[i] = plain_after[i + 1] + (
            not isinstance(patterns[i], CollVar))
    n = src.assign("n", f"len({args})")
    if plain_after[0] == len(patterns):
        src.require(f"{n} == {len(patterns)}")
    elif plain_after[0]:
        src.require(f"{n} >= {plain_after[0]}")

    def step(i: int, at: str, offset: int, exact: bool, env: dict) -> None:
        """Patterns from ``i`` on against ``args[at + offset:]``; every
        plain pattern left has a subject (the invariant the length test
        and each collection variable's range maintain); ``exact``: the
        subjects run out with the patterns by construction."""
        position = (f"{at}+{offset}" if at and offset
                    else at or str(offset))
        if i == len(patterns):
            if not exact:
                src.require(f"{position} == {n}")
            then(env)
            return
        head = patterns[i]
        if not isinstance(head, CollVar):
            _match_term(src, head, f"{args}[{position}]", env,
                        lambda env: step(i + 1, at, offset + 1, exact, env))
            return
        key = "*" + head.name
        known = env.get(key)
        if known is not None:
            end = src.assign("e", f"{position}+len({known})")
            src.require(f"{args}[{position}:{end}] == {known} and "
                        f"{n}-{end} >= {plain_after[i + 1]}")
            step(i + 1, end, 0, False, env)
        elif plain_after[i + 1] == len(patterns) - i - 1:
            # the last collection variable takes what the plain
            # patterns behind it leave
            end = src.assign("e", f"{n}-{plain_after[i + 1]}") \
                if plain_after[i + 1] else n
            step(i + 1, end, 0, True,
                 {**env, key: f"{args}[{position}:{end}]"})
        else:
            end = src.fresh("e")
            spare = 1 - plain_after[i + 1]
            src.loop(end, f"range({position}, {n}{spare:+d})" if spare
                     else f"range({position}, {n})")
            step(i + 1, end, 0, False,
                 {**env, key: f"{args}[{position}:{end}]"})

    step(0, "", 0, plain_after[0] == len(patterns), env)


def _match_unordered(src: _Source, patterns: tuple, args: str, env: dict,
                     then: Callable[[dict], None]) -> None:
    """``SET`` / ``AND`` / ``OR``: matching modulo permutation.  The
    plain patterns pick distinct arguments, first pattern outermost,
    candidates in argument order; collection variables share what is
    left, the first one offered the largest sub-multisets first."""
    plain = [p for p in patterns if not isinstance(p, CollVar)]
    free = []
    for p in patterns:
        if isinstance(p, CollVar):
            known = env.get("*" + p.name)
            if known is None:
                free.append("*" + p.name)
            else:
                # an already bound collection variable is consumed first
                args = src.assign("a", f"remove_items({args}, {known})")
                src.require(f"{args} is not None")
    n = src.assign("n", f"len({args})")
    if not free:
        src.require(f"{n} == {len(plain)}")
    elif plain:
        src.require(f"{n} >= {len(plain)}")

    def pick(i: int, taken: tuple, env: dict) -> None:
        if i < len(plain):
            index = src.fresh("i")
            src.loop(index, f"range({n})")
            if taken:
                src.require(" and ".join(
                    f"{index} != {other}" for other in taken))
            _match_term(src, plain[i], f"{args}[{index}]", env,
                        lambda env: pick(i + 1, taken + (index,), env))
            return
        if not free:
            then(env)
            return
        if not taken:
            left = args
        elif len(taken) == 1:
            left = f"{args}[:{taken[0]}] + {args}[{taken[0]}+1:]"
        else:
            left = f"without({args}, {', '.join(taken)})"
        env = dict(env)
        if len(free) > 1:
            left = src.local(left)
            for key in free[:-1]:
                size, combo = src.fresh("z"), src.fresh("c")
                src.loop(size, f"range(len({left}), -1, -1)")
                src.loop(combo,
                         f"combinations(range(len({left})), {size})")
                took, rest = src.fresh("t"), src.fresh("r")
                src.line(f"{took}, {rest} = split({left}, {combo})")
                src.locals += [took, rest]
                env[key] = took
                left = rest
        env[free[-1]] = left
        then(env)

    pick(0, (), env)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2048)
def compile_template(term: Term, strict: bool = True) -> Builder:
    """The builder of ``term``: ``build(binding)`` is the term with its
    variables replaced (a bare collection variable gives its
    :class:`~repro.terms.term.Seq`).  ``strict``: an unbound variable
    raises :class:`~repro.errors.RuleError`; otherwise it stays."""
    src = _Source("build", "b")
    expr = _template(src, term, strict)
    if strict:
        src.line("try:")
        src.line(f"    return {expr}")
        src.line("except KeyError as missing:")
        src.line("    raise unbound(missing.args[0]) from None")
    else:
        src.line(f"return {expr}")
    return src.build()


def _template(src: _Source, term: Term, strict: bool) -> str:
    if isinstance(term, (Var, CollVar)):
        key = term.name if isinstance(term, Var) else "*" + term.name
        return (f"b[{key!r}]" if strict
                else f"b.get({key!r}, {src.const(term)})")
    if isinstance(term, (Const, AttrRef)):
        return src.const(term)
    if not isinstance(term, Fun):
        raise RuleError(f"cannot instantiate {term!r}")
    items = "".join(_template(src, a, strict) + ", " for a in term.args)
    name = term.name.upper()
    if name in FUNVARS:
        key = "§" + name
        name = f"b[{key!r}]" if strict else f"b.get({key!r}, {name!r})"
        return f"mk_fun({name}, ({items}))"
    if name in NORMALISED_FUNS:
        return f"mk_fun({name!r}, ({items}))"
    if any(isinstance(a, CollVar) for a in term.args):
        return f"Fun({name!r}, splice(({items})))"
    return f"Fun({name!r}, ({items}))"
