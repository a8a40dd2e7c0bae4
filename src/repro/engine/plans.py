"""The plan cache: a repeated query text is planned once.

:class:`PlanCache` maps ``(text, rewrite)`` to what a repeated
query needs to run -- its :class:`~repro.esql.fingerprint.Fingerprint`,
the final LERA plan, the plan's :class:`~repro.lera.schema.Schema` and
the number of rule firings that built it.  ``Database.query`` consults
it before parsing; a hit skips parse, fingerprint, translate,
typecheck and rewrite and goes straight to the evaluator (see
``docs/architecture.md``, "The statement path").

Keying on the text needs no soundness contract for constants: the same
text carries the same literals, so it gets the same plan.  ``rewrite``
is part of the key because it changes the plan.  A checked statement
neither reads nor stores an entry: checked mode validates each rewrite
against the rows present now, and DML changes those without bumping
the plan version.

Everything a rewrite reads besides the text bumps one
:class:`PlanVersion` counter (owned by the catalog): catalog DDL,
integrity constraints and regenerated optimizers, the rewriter's rule
and extension changes, and the quarantine.  An entry stamped with an
older version is a miss.

The cache is bounded by the term nodes its plans hold
(:data:`CAPACITY_NODES`), least recently used first out.  Terms are
shared when built (see :mod:`repro.terms.term`), and equal schemas and
fingerprints of different entries are one object here, so a thousand
texts that differ only in a constant cost a thousand small spines, not
a thousand plans.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import NamedTuple, Optional

from repro.terms.term import term_size

__all__ = ["PlanCache", "PlanVersion", "CachedPlan", "CAPACITY_NODES"]

# the one capacity constant: term nodes held by the cached plans
CAPACITY_NODES = 65_536


class PlanVersion:
    """One counter that every input of a rewrite, other than the
    query text, bumps when it changes.  ``next`` on an
    :func:`itertools.count` is atomic, so concurrent bumps never move
    the value backwards."""

    __slots__ = ("value", "_ticks")

    def __init__(self):
        self._ticks = itertools.count(1)
        self.value = 0

    def bump(self) -> None:
        self.value = next(self._ticks)


class CachedPlan(NamedTuple):
    """One cache entry: only what a repeated query needs to run."""

    fingerprint: object
    plan: object
    schema: object
    firings: int
    version: int
    nodes: int


class PlanCache:
    """A bounded, thread-safe map from query text to plan."""

    def __init__(self, version: PlanVersion):
        self.version = version
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._nodes = 0
        # each shared schema and fingerprint, mapped to itself
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

    # -- storing --------------------------------------------------------------
    def put(self, key, fingerprint, optimized, version: int) -> None:
        """Keep ``optimized``'s final plan for ``key``, stamped with the
        ``version`` read before it was planned.  A degraded rewrite, or
        one the resilience layer had to intervene in, is not kept: its
        plan is not what the rewriter produces for this text."""
        if not _clean(optimized) or version != self.version.value:
            return
        plan = optimized.final
        nodes = term_size(plan)
        if nodes > CAPACITY_NODES:
            return
        with self._lock:
            if len(self._shared) > 2 * len(self._entries) + 64:
                # mostly values of dropped entries; live ones keep theirs
                self._shared.clear()
            entry = CachedPlan(
                self._share(fingerprint), plan,
                self._share(optimized.schema),
                len(optimized.rewrite_result.trace), version, nodes,
            )
            self._drop(key)
            while self._entries and self._nodes + nodes > CAPACITY_NODES:
                self._drop(next(iter(self._entries)))
                self.evictions += 1
            self._entries[key] = entry
            self._nodes += nodes

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
