"""The plan cache: a repeated query text is planned once, and each
plan *shape* is compiled once.

:class:`PlanCache` maps ``(text, rewrite)`` to what a repeated query
needs to run: its fingerprint, final LERA plan, schema and rule
firings, and the compiled tree of its shape with the text's
parameters.  ``Database.query`` consults it before parsing; a hit
skips every stage up to the run of the tree (``docs/architecture.md``,
"The statement path").  :meth:`PlanCache.tree` is the one place a plan
becomes a runnable :class:`Tree`: every query the statement path
evaluates -- a hit, a kept or unkept plan, analyzed, observed or
checked -- runs the tree held for its shape, or one compiled for it.

:func:`lift` makes the shape: each int, real or string constant of a
qualification, projection item or ``VALUES`` cell becomes ``PARAM(i)``,
numbered by distinct value (so Alexander's inlined magic fixpoint stays
one shared result), and fresh fixpoint names are numbered by first
appearance.  A plan with a NEST (it derives schemas as it runs) is its
own shape.

The same text carries the same literals, so keying on it needs no
soundness contract for constants; ``rewrite`` changes the plan, so it
is part of the key.  A checked statement neither reads nor stores an
entry: checked mode validates each rewrite against the rows present
now, and DML changes those without bumping the plan version.

Everything a rewrite or a compile reads besides the text bumps one
:class:`PlanVersion` counter (owned by the catalog): catalog DDL,
integrity constraints and regenerated optimizers, the rewriter's rule
and extension changes, the quarantine, the function registry and the
database's ``hash_joins`` / ``semi_naive``.  An entry stamped with an
older version is a miss; a tree is shared only within one version, and
only :meth:`PlanCache.put` holds one.

The cache is bounded by the term nodes its plans hold
(:data:`CAPACITY_NODES`), least recently used first out.  Terms are
shared when built (:mod:`repro.terms.term`), and equal schemas and
fingerprints of different entries are one object here, so a thousand
texts that differ only in a constant cost a thousand small spines and
one compiled tree.
"""

from __future__ import annotations

import itertools
import re
import threading
from collections import OrderedDict
from typing import Callable, NamedTuple, Optional

from repro.lera import ops
from repro.terms.term import Const, Fun, Term, num, sym, term_size

__all__ = ["PlanCache", "PlanVersion", "CachedPlan", "Tree", "PARAM",
           "lift", "CAPACITY_NODES"]

# the one capacity constant: term nodes held by the cached plans
CAPACITY_NODES = 65_536

# the argument positions of a LERA operator that hold scalar
# expressions: qualifications, projection items, VALUES cells
_EXPRESSIONS = {**ops.SCOPED_ARGS, "VALUES": (0,)}
# the fixpoint method's fresh names: R$MAGICk / R$BOUNDk
_FRESH = re.compile(r"(.*\$(?:MAGIC|BOUND))(\d+)")


# a lifted constant: PARAM(i) stands for the i-th value of a run's
# parameter vector (:attr:`~repro.engine.evaluate.Frame.params`)
PARAM = "$"


def lift(plan: Term) -> tuple[Term, tuple]:
    """``plan``'s shape and the parameter vector that turns the shape
    back into ``plan`` (see the module docstring)."""
    if isinstance(plan, Fun) and "NEST" in {plan.name, *plan.symbols}:
        return plan, ()
    values: dict = {}
    fresh: dict = {}

    def walk(term: Term, expression: bool) -> Term:
        if isinstance(term, Fun):
            lifted = () if expression else _EXPRESSIONS.get(term.name, ())
            args = []  # a loop, not a generator: one frame a level
            for i, a in enumerate(term.args):
                args.append(walk(a, expression or i in lifted))
            args = tuple(args)
            return term if args == term.args else Fun(term.name, args)
        if not isinstance(term, Const):
            return term
        if expression and term.kind in ("int", "real", "string"):
            key = (term.kind, type(term.value), term.value)
            return Fun(PARAM, (num(values.setdefault(key, len(values))),))
        match = term.kind == "symbol" and _FRESH.fullmatch(str(term.value))
        if not match:
            return term
        return sym(match[1] + str(fresh.setdefault(match[2], len(fresh))))

    return walk(plan, False), tuple(value for __, __, value in values)


# One tick source for every PlanVersion: a value is never reused, so it
# names its version object as well as the state (the derivations kept
# on terms, repro.lera.schema, are keyed by it alone).
_TICKS = itertools.count(1)


class PlanVersion:
    """One counter that every input of a rewrite, other than the
    query text, bumps when it changes.  ``next`` on an
    :func:`itertools.count` is atomic, so concurrent bumps never move
    the value backwards."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = next(_TICKS)

    def bump(self) -> None:
        self.value = next(_TICKS)


class Tree(NamedTuple):
    """A plan ready to run: its shape's shared tree and its parameters."""

    root: Callable
    params: tuple
    shape: object


class CachedPlan(NamedTuple):
    """One cache entry: only what a repeated query needs to run;
    ``root``, the tree of ``shape``, is shared by its equal shapes."""

    fingerprint: object
    plan: object
    schema: object
    firings: int
    version: int
    nodes: int
    shape: object
    root: Callable
    params: tuple


class PlanCache:
    """A bounded, thread-safe map from query text to plan."""

    def __init__(self, version: PlanVersion):
        self.version = version
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._nodes = 0
        # each shared schema and fingerprint, mapped to itself, and
        # each compiled tree, under (version, shape)
        self._shared: dict = {}
        self.hits = self.misses = 0
        self.evictions = self.invalidations = 0

    # -- lookup ---------------------------------------------------------------
    @staticmethod
    def key(source, options) -> tuple:
        """The cache key of a query-only call: its text (``source`` or
        the text of a parsed pair) and its resolved options."""
        text = source if isinstance(source, str) else source[1]
        return text, bool(options.rewrite)

    def get(self, key) -> Optional[CachedPlan]:
        """The live entry for ``key``, or None (counted as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.version != self.version.value:
                self._drop(key)
                self.invalidations += 1
                entry = None
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def current(self, entry: CachedPlan) -> bool:
        """Is ``entry`` still valid (no plan input changed since)?"""
        return entry.version == self.version.value

    def tree(self, plan: Term, compile: Callable) -> Tree:
        """``plan`` as a :class:`Tree`: the tree held for its shape, else
        ``compile(shape)``, held only if :meth:`put` keeps the plan."""
        shape, params = lift(plan)
        with self._lock:
            root = self._shared.get((self.version.value, shape))
        return Tree(root or compile(shape), params, shape)

    # -- storing --------------------------------------------------------------
    def put(self, key, fingerprint, optimized, version: int,
            compile: Callable) -> Optional[CachedPlan]:
        """Keep ``optimized``'s final plan for ``key``, stamped with the
        ``version`` read before it was planned, with its :meth:`tree`;
        returns the entry.  A degraded rewrite, or one the resilience
        layer had to intervene in, is not kept: its plan is not what
        the rewriter produces here."""
        if not _clean(optimized) or version != self.version.value:
            return None
        plan = optimized.final
        nodes = term_size(plan)
        if nodes > CAPACITY_NODES:
            return None
        root, params, shape = self.tree(plan, compile)
        with self._lock:
            if len(self._shared) > 2 * len(self._entries) + 64:
                # mostly values of dropped entries; live ones keep theirs
                self._shared.clear()
            self._drop(key)
            while self._entries and self._nodes + nodes > CAPACITY_NODES:
                self._drop(next(iter(self._entries)))
                self.evictions += 1
            entry = self._entries[key] = CachedPlan(
                self._share(fingerprint), plan,
                self._share(optimized.schema),
                len(optimized.rewrite_result.trace), version, nodes,
                shape, self._shared.setdefault((version, shape), root),
                params,
            )
            self._nodes += nodes
        return entry

    def _drop(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._nodes -= entry.nodes

    def _share(self, value):
        """The one shared object equal to ``value``."""
        return self._shared.setdefault(value, value)

    # -- reading --------------------------------------------------------------
    def counters(self) -> dict:
        """The ``plan_cache.*`` counters ``sys.metrics`` shows."""
        with self._lock:
            return {
                "plan_cache.hits": self.hits,
                "plan_cache.misses": self.misses,
                "plan_cache.evictions": self.evictions,
                "plan_cache.invalidations": self.invalidations,
                "plan_cache.trees": len({id(entry.root) for entry
                                         in self._entries.values()}),
            }

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nodes(self) -> int:
        """Term nodes held by the cached plans."""
        return self._nodes


def _clean(optimized) -> bool:
    """A rewrite the resilience layer left alone: not degraded, no
    sandboxed failure, no benched rule, no divergence halt.  (Checked
    mode never stores, so its rollbacks are not looked for.)"""
    if optimized.degraded:
        return False
    report = optimized.resilience
    return report is None or not (
        report.rule_failures or report.quarantined or report.divergence
    )
