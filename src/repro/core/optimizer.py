"""The optimization pipeline: type checking, rewriting, re-checking.

Section 5 names three syntactic activities; the pipeline realises them
as: (1) the type-checking pass (generic-function inference, conversion
insertion), (2) the rule-driven rewrite (merging, permutation, fixpoint
reduction, semantic optimization, simplification), and (3) a final
type-checking pass that normalises expressions introduced by semantic
rules (integrity-constraint templates are written in user syntax, e.g.
``ABS(x)``, and must become ``PROJECT(x, 'ABS')`` before execution).
Both passes read the derivation remembered on each node
(:mod:`repro.lera.schema`), so the final pass walks only the nodes the
rewrite built, and is not run when no rule fired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.engine.catalog import Catalog
from repro.lera.schema import Schema
from repro.lera.typecheck import typecheck
from repro.obs.events import PhaseEnd, PhaseStart
from repro.core.rewriter import QueryRewriter, provenance_entries
from repro.rules.control import RewriteResult
from repro.terms.term import Term

__all__ = ["Optimizer", "OptimizedQuery"]


@dataclass
class OptimizedQuery:
    """Every stage of one query's trip through the optimizer."""

    original: Term
    typed: Term
    rewritten: Term
    final: Term
    schema: Schema
    rewrite_result: RewriteResult
    # one ProvenanceEntry per firing, stamped with the statement's
    # trace id and fingerprint: the objects the ledger (sys.rewrites)
    # holds and the explain report embeds
    provenance: list = field(default_factory=list)

    @property
    def trace(self):
        return self.rewrite_result.trace

    @property
    def applications(self) -> int:
        return self.rewrite_result.applications

    @property
    def degraded(self) -> bool:
        """True when a deadline / work budget expired mid-rewrite and
        ``final`` is the best plan found so far, not a fixpoint."""
        return self.rewrite_result.degraded

    @property
    def resilience(self):
        """The :class:`~repro.resilience.ResilienceReport` of the
        rewrite, or None when no resilience policy was active."""
        return self.rewrite_result.resilience


class Optimizer:
    """Type checking + rewriting against one catalog.

    With ``dynamic_limits=True`` the block budgets and pass count are
    allocated per query from its structural complexity -- the section 7
    proposal ("limits can even be adjusted [...] a 0 limit can be given
    to all blocks" for simple queries).
    """

    def __init__(self, catalog: Catalog,
                 rewriter: Optional[QueryRewriter] = None,
                 dynamic_limits: bool = False,
                 ledger=None):
        self.catalog = catalog
        self.rewriter = rewriter or QueryRewriter(catalog)
        self.dynamic_limits = dynamic_limits
        # the database's RewriteLedger (or None): every rewrite's trace
        # lands there, stamped with the current trace context, feeding
        # sys.rewrites / sys.rule_heat
        self.ledger = ledger

    def optimize(self, term: Term, rewrite: bool = True,
                 obs=None, resilience=None) -> OptimizedQuery:
        """Run the pipeline; ``obs`` (an event bus) sees ``PhaseStart``
        / ``PhaseEnd`` around each stage plus the engine's own events.

        ``resilience`` is the rewrite's
        :class:`~repro.resilience.ResiliencePolicy` or None (the
        statement path decides it: ``Database._rewrite_policy``).  A
        rewrite whose budget -- or whose statement's deadline -- runs
        out keeps the best-so-far term and is flagged
        ``degraded=True`` instead of raising.
        """
        bus = obs if obs else None
        if bus:
            bus.emit(PhaseStart("optimize"))
            t_opt = perf_counter()
            bus.emit(PhaseStart("typecheck"))
            t0 = perf_counter()
        typed, schema = typecheck(term, self.catalog)
        if bus:
            bus.emit(PhaseEnd("typecheck", perf_counter() - t0))
            bus.emit(PhaseStart("rewrite"))
            t0 = perf_counter()
        if rewrite and self.dynamic_limits:
            result = self._rewrite_dynamic(typed, bus, resilience)
        elif rewrite:
            result = self.rewriter.rewrite(typed, obs=bus,
                                           resilience=resilience)
        else:
            result = RewriteResult(typed)
        if bus:
            bus.emit(PhaseEnd("rewrite", perf_counter() - t0))
            bus.emit(PhaseStart("typecheck_final"))
            t0 = perf_counter()
        final = result.term
        if final is not typed:
            final, schema = typecheck(final, self.catalog)
        if bus:
            bus.emit(PhaseEnd("typecheck_final", perf_counter() - t0))
            bus.emit(PhaseEnd("optimize", perf_counter() - t_opt))
        provenance = []
        if result.trace:
            from repro.esql.fingerprint import current_fingerprint
            from repro.obs.telemetry import current_trace
            trace = current_trace()
            fingerprint = current_fingerprint()
            provenance = provenance_entries(
                result, trace.trace_id if trace else "",
                fingerprint.fingerprint if fingerprint else "",
            )
            if self.ledger is not None:
                self.ledger.record(provenance)
        return OptimizedQuery(
            original=term,
            typed=typed,
            rewritten=result.term,
            final=final,
            schema=schema,
            rewrite_result=result,
            provenance=provenance,
        )

    def _rewrite_dynamic(self, typed: Term, obs,
                         resilience) -> RewriteResult:
        from repro.core.complexity import allocate_limits, assess
        from repro.rules.control import Seq

        allocation = allocate_limits(assess(typed))
        if not allocation["enabled"]:
            return RewriteResult(typed)
        blocks = [
            block.with_limit(allocation["semantic"])
            if block.name == "semantic" else block
            for block in self.rewriter.seq.blocks
        ]
        return self.rewriter.rewrite(
            typed, obs=obs, resilience=resilience,
            seq=Seq(blocks, passes=allocation["passes"]),
        )
