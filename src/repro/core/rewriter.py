"""The query rewriter: the paper's primary artifact.

:class:`QueryRewriter` bundles a block sequence, a constraint-predicate
table and a method registry into the "generated optimizer" of section
4.2, and rewrites LERA terms against a catalog.  Everything is
reconfigurable -- adding a rule, a block, a method or a predicate
regenerates the optimizer, which is the extensibility story the paper
demonstrates.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.engine.catalog import Catalog
from repro.errors import RewriteError
from repro.rules.constraints import ConstraintEvaluator
from repro.rules.control import Block, RewriteEngine, RewriteResult, Seq
from repro.rules.library import DEFAULT_SEMANTIC_LIMIT, standard_seq
from repro.rules.methods import MethodRegistry, default_method_registry
from repro.rules.rule import RuleContext
from repro.terms.term import Term, term_size

__all__ = ["QueryRewriter", "ProvenanceEntry", "RewriteLedger",
           "term_hash"]


def term_hash(term: Term) -> str:
    """A short stable fingerprint of a LERA term.

    Twelve hex characters of SHA-1 over the printed form: enough to
    join ``sys.rewrites`` rows against explain output by eye.
    """
    from repro.terms.printer import term_to_str
    digest = hashlib.sha1(term_to_str(term).encode("utf-8"))
    return digest.hexdigest()[:12]


@dataclass
class ProvenanceEntry:
    """One rule firing, as the ledger remembers it.

    ``before`` / ``after`` are the rewritten *subterm*, ``nodes`` their
    combined size; :func:`term_hash` of each is worked out when
    ``before_hash`` / ``after_hash`` is first read (``sys.rewrites``,
    an explain report) and kept, so a statement nobody inspects prints
    and hashes nothing.  The ledger calls :meth:`release` on an entry
    whose subterms it has no room to keep.
    ``complexity_delta`` is ``term_size(after) - term_size(before)``
    (negative = the rule simplified).
    ``duration_ms`` is the measured apply time when an event bus was
    attached to the rewrite; 0.0 on the null-sink fast path, which
    never touches the clock.  ``fingerprint`` is the statement-template
    identity (:mod:`repro.esql.fingerprint`) of the query the rule
    fired in, joining ``sys.rewrites`` against ``sys.statements``.
    """

    trace_id: str
    block: str
    rule: str
    iteration: int
    path: str
    before: Optional[Term]
    after: Optional[Term]
    nodes: int
    complexity_delta: int
    duration_ms: float
    fingerprint: str = ""
    _hashes: Optional[tuple] = field(default=None, repr=False,
                                     compare=False)

    def hashes(self) -> tuple:
        """``(before_hash, after_hash)``."""
        found = self._hashes
        if found is None:
            before, after = self.before, self.after
            if before is None:  # released by another thread just now
                return self._hashes
            found = self._hashes = (term_hash(before), term_hash(after))
        return found

    @property
    def before_hash(self) -> str:
        return self.hashes()[0]

    @property
    def after_hash(self) -> str:
        return self.hashes()[1]

    def release(self) -> None:
        """Let the subterms go, keeping their hashes."""
        self.hashes()
        self.before = self.after = None

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "block": self.block,
            "rule": self.rule,
            "iteration": self.iteration,
            "path": self.path,
            "before_hash": self.before_hash,
            "after_hash": self.after_hash,
            "complexity_delta": self.complexity_delta,
            "duration_ms": self.duration_ms,
            "fingerprint": self.fingerprint,
        }


def provenance_entries(result: RewriteResult,
                       trace_id: str = "",
                       fingerprint: str = "") -> list[ProvenanceEntry]:
    """Flatten a rewrite trace into provenance entries.

    Run once per rewrite, by the optimizer: the ledger accumulates the
    entries across statements and the explain report embeds the same
    objects (``OptimizedQuery.provenance``) in its schema-v5
    ``provenance`` section, so the two views cannot disagree about a
    firing.
    """
    entries = []
    for iteration, t in enumerate(result.trace):
        before, after = term_size(t.before), term_size(t.after)
        entries.append(ProvenanceEntry(
            trace_id=trace_id,
            block=t.block,
            rule=t.rule,
            iteration=iteration,
            path=".".join(str(p) for p in t.path),
            before=t.before,
            after=t.after,
            nodes=before + after,
            complexity_delta=after - before,
            duration_ms=t.duration * 1000.0,
            fingerprint=fingerprint,
        ))
    return entries


class RewriteLedger:
    """A bounded ring of rule firings plus cumulative per-rule heat.

    The ledger is owned by the :class:`~repro.engine.database.Database`
    (so it survives optimizer regeneration) and fed by the optimizer
    after every rewrite.  ``sys.rewrites`` reads the ring;
    ``sys.rule_heat`` reads the aggregates, which keep counting after
    old rings entries have been evicted -- heat is the signal the
    adaptive-rewrite work needs, and it must not decay just because
    the ring wrapped.

    An entry's term hashes are worked out when somebody reads them,
    from the two subterms it keeps -- as long as the ring holds no more
    than ``KEEP_NODES`` term nodes that way: an entry that would exceed
    that is hashed and released as it is recorded, so the ring never
    pins more than a fixed amount of plan, whatever the plans' size.

    Thread-safe: recording happens inside concurrent query statements
    (readers under the shared lock), so both structures are guarded by
    one mutex; producers take a snapshot under it and iterate outside.
    """

    KEEP_NODES = 16_384

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._kept = 0  # term nodes held by the ring's unreleased entries
        # (block, rule) -> [fired, complexity_delta_total, duration_ms_total]
        self._heat: dict[tuple[str, str], list] = {}
        self._recorded = 0

    def record(self, entries: list[ProvenanceEntry]) -> None:
        with self._lock:
            self._recorded += len(entries)
            for e in entries:
                if self._ring and len(self._ring) == self.capacity:
                    evicted = self._ring.popleft()
                    if evicted.before is not None:
                        self._kept -= evicted.nodes
                if self._kept + e.nodes <= self.KEEP_NODES:
                    self._kept += e.nodes
                else:
                    e.release()
                self._ring.append(e)
                slot = self._heat.setdefault(
                    (e.block, e.rule), [0, 0, 0.0]
                )
                slot[0] += 1
                slot[1] += e.complexity_delta
                slot[2] += e.duration_ms

    def entries(self) -> list[ProvenanceEntry]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def heat(self) -> list[dict]:
        """Cumulative per-(block, rule) aggregates, hottest first."""
        with self._lock:
            snapshot = {k: list(v) for k, v in self._heat.items()}
        rows = []
        for (block, rule), (fired, delta, duration) in snapshot.items():
            rows.append({
                "block": block,
                "rule": rule,
                "fired": fired,
                "complexity_delta_total": delta,
                "complexity_delta_mean": delta / fired if fired else 0.0,
                "duration_ms_total": duration,
            })
        rows.sort(key=lambda r: (-r["fired"], r["block"], r["rule"]))
        return rows

    @property
    def recorded(self) -> int:
        """Total firings ever recorded (>= len(entries()) once the
        ring has wrapped)."""
        with self._lock:
            return self._recorded

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._heat.clear()
            self._recorded = 0
            self._kept = 0


class QueryRewriter:
    """A configured rewriter: sequence of blocks + extension points.

    Parameters
    ----------
    catalog:
        The catalog rules consult (schemas, types, functions).
    seq:
        The block sequence; defaults to the standard program of
        :mod:`repro.rules.library` with the catalog's integrity
        constraints installed in the semantic block.
    semantic_limit:
        Budget of the semantic block when the default sequence is used
        (the conclusion's tunable trade-off).
    quarantine:
        The :class:`~repro.resilience.QuarantineRegistry` every rewrite
        skips the rules of and benches into (the database hands over
        its own); None gives each rewrite a private, empty one.
    """

    def __init__(self, catalog: Catalog, seq: Optional[Seq] = None,
                 semantic_limit: Optional[int] = DEFAULT_SEMANTIC_LIMIT,
                 collect_trace: bool = True, quarantine=None):
        self.catalog = catalog
        self.quarantine = quarantine
        self.constraint_evaluator = ConstraintEvaluator()
        self.methods = default_method_registry()
        if seq is None:
            seq = standard_seq(
                integrity_constraints=catalog.integrity_constraints,
                semantic_limit=semantic_limit,
            )
        self.seq = seq
        self.collect_trace = collect_trace

    @classmethod
    def from_program(cls, catalog: Catalog, program: str,
                     extra_rules: Iterable = ()) -> "QueryRewriter":
        """Generate an optimizer from a section 4.2 meta-rule program.

        ``program`` is ``block({rules}, limit)`` / ``seq((blocks), n)``
        text; rule names resolve against the built-in library plus
        ``extra_rules`` and the catalog's integrity constraints.
        """
        from repro.rules.meta import parse_program, standard_rule_library
        library = standard_rule_library(
            list(extra_rules) + list(catalog.integrity_constraints)
        )
        seq = parse_program(program, library)
        return cls(catalog, seq=seq)

    # -- extension points ----------------------------------------------------
    def block(self, name: str) -> Block:
        for b in self.seq.blocks:
            if b.name == name:
                return b
        raise RewriteError(f"no block named {name!r}")

    def add_rule(self, rule, block: str = "simplify",
                 position: Optional[int] = None) -> None:
        """Install a compiled rule into a block."""
        target = self.block(block)
        if position is None:
            target.rules.append(rule)
        else:
            target.rules.insert(position, rule)

    def add_block(self, block: Block,
                  before: Optional[str] = None) -> None:
        if before is None:
            self.seq.blocks.append(block)
            return
        for i, b in enumerate(self.seq.blocks):
            if b.name == before:
                self.seq.blocks.insert(i, block)
                return
        raise RewriteError(f"no block named {before!r}")

    def set_block_limit(self, name: str, limit: Optional[int]) -> None:
        for i, b in enumerate(self.seq.blocks):
            if b.name == name:
                self.seq.blocks[i] = b.with_limit(limit)
                return
        raise RewriteError(f"no block named {name!r}")

    def add_method(self, name: str, arity: int, impl) -> None:
        self.methods.register(name, arity, impl)

    def add_predicate(self, name: str, predicate) -> None:
        self.constraint_evaluator.register(name, predicate)

    # -- rewriting -------------------------------------------------------------
    def context(self) -> RuleContext:
        return RuleContext(
            catalog=self.catalog,
            constraint_evaluator=self.constraint_evaluator,
            methods=self.methods,
        )

    def rewrite(self, term: Term, obs=None, resilience=None,
                seq: Optional[Seq] = None) -> RewriteResult:
        """Rewrite a LERA term through the configured sequence (or
        ``seq``, a variant of it for this one rewrite).

        ``obs`` is an optional :class:`~repro.obs.bus.EventBus`; the
        engine emits block/pass/rule events on it (and constraint and
        method evaluation emit theirs through the rule context).
        ``resilience`` is an optional
        :class:`~repro.resilience.ResiliencePolicy`: sandboxing,
        deadlines, divergence detection and checked mode (see
        ``docs/robustness.md``).
        """
        engine = RewriteEngine(
            self.seq if seq is None else seq,
            collect_trace=self.collect_trace, obs=obs,
            resilience=resilience, quarantine=self.quarantine,
        )
        return engine.rewrite(term, self.context())

    def rule_inventory(self) -> dict[str, list[str]]:
        """Block name -> rule names, for introspection and docs."""
        return {b.name: b.rule_names() for b in self.seq.blocks}
