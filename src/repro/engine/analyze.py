"""EXPLAIN ANALYZE: per-operator actuals for one evaluation.

:class:`AnalyzeCollector` is the opt-in counterpart of the planner's
estimated plan tree: when attached to an
:class:`~repro.engine.evaluate.Evaluator` it records, for every LERA
operator node that actually executes, the actual row count, the loop
count (semi-naive fixpoints re-evaluate their delta bodies once per
iteration), wall time split into *self* and *total* (children
subtracted, so self times sum to the eval stage time within clock
tolerance), and the budget-byte estimate the memory accountant would
charge for the node's output.

Design notes:

- The evaluator calls ``enter(term)`` / ``exit(term, rows, elapsed,
  nbytes)`` around each dispatched node.  Enter/exit nest exactly like
  the recursive evaluation itself, so a one-list stack of accumulated
  child time is enough to compute self time -- no tree building during
  the hot loop.
- During evaluation, nodes are keyed by ``id(term)``; the record keeps
  a reference to the term, so the id cannot be recycled underneath us.
  A semi-naive fixpoint compiles each delta body once and runs it once
  per iteration, so its node counts loops; :meth:`snapshot` re-keys by
  the printed term form and merges equal forms into one node (equal
  subterms may or may not share a compiled closure), exactly how
  EXPLAIN ANALYZE reports an inner relation scanned N times.
- Common-subexpression cache hits in the evaluator never reach the
  dispatch wrapper, so counters reflect *actual executions only*; a
  node evaluated once and reused twice shows ``loops = 1``.
- Everything is plain-dict serializable: pool workers run a collector
  in-process and ship :meth:`snapshot` back in the result frame.

When analyze mode is off the evaluator holds ``None`` instead of a
collector, read once when a node is compiled: the unobserved node is
the bare closure.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["AnalyzeCollector"]


class _Node:
    __slots__ = ("term", "depth", "order", "rows", "loops",
                 "self_s", "total_s", "bytes")

    def __init__(self, term, depth: int, order: int):
        self.term = term
        self.depth = depth
        self.order = order
        self.rows = 0
        self.loops = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.bytes = 0


class AnalyzeCollector:
    """Accumulates per-operator actuals during one evaluation."""

    __slots__ = ("_nodes", "_stack")

    def __init__(self):
        self._nodes: dict[int, _Node] = {}
        self._stack: list[float] = []

    # -- hot path -----------------------------------------------------------
    def enter(self, term) -> None:
        self._stack.append(0.0)

    def exit(self, term, rows: int, elapsed: float, nbytes: int) -> None:
        child_time = self._stack.pop()
        depth = len(self._stack)
        if self._stack:
            self._stack[-1] += elapsed
        node = self._nodes.get(id(term))
        if node is None:
            node = self._nodes[id(term)] = _Node(
                term, depth, len(self._nodes))
        elif depth < node.depth:
            node.depth = depth
        node.loops += 1
        node.rows += rows
        node.total_s += elapsed
        # child intervals are disjoint sub-intervals of this one, so the
        # difference is non-negative up to float rounding; clamp so a
        # last-bit error can never produce a negative self time
        node.self_s += max(0.0, elapsed - child_time)
        node.bytes += nbytes

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> list[dict]:
        """The merged per-operator node list, execution order.

        Nodes whose terms print to the same form (the semi-naive delta
        bodies rebuilt each iteration) merge into one entry; ``loops``
        counts the merged executions.  Hashing happens here, once per
        distinct node, never in the evaluation loop.
        """
        from repro.lera import ops
        from repro.terms.printer import term_to_str
        from repro.terms.term import Fun

        merged: dict[str, dict] = {}
        for node in sorted(self._nodes.values(), key=lambda n: n.order):
            form = term_to_str(node.term)
            entry = merged.get(form)
            if entry is None:
                term = node.term
                operator = (term.name if isinstance(term, Fun)
                            else "SCAN" if ops.is_relation_name(term)
                            else type(term).__name__)
                entry = merged[form] = {
                    "node": len(merged),
                    "operator": operator,
                    "hash": _form_hash(form),
                    "depth": node.depth,
                    "rows": 0,
                    "loops": 0,
                    "self_ms": 0.0,
                    "total_ms": 0.0,
                    "bytes": 0,
                }
            elif node.depth < entry["depth"]:
                entry["depth"] = node.depth
            entry["rows"] += node.rows
            entry["loops"] += node.loops
            entry["self_ms"] += node.self_s * 1000.0
            entry["total_ms"] += node.total_s * 1000.0
            entry["bytes"] += node.bytes
        return list(merged.values())

    def total_self_ms(self) -> float:
        """Sum of per-node self time -- should match the eval stage
        wall time within clock-resolution tolerance."""
        return sum(n.self_s for n in self._nodes.values()) * 1000.0

    @property
    def observed(self) -> int:
        """Distinct (unmerged) term objects seen."""
        return len(self._nodes)

    def clear(self) -> None:
        self._nodes.clear()
        self._stack.clear()


def _form_hash(form: str) -> str:
    """Same 12-hex convention as :func:`repro.core.rewriter.term_hash`
    (which hashes a *term*; analyze already has the printed form)."""
    import hashlib
    return hashlib.sha1(form.encode("utf-8")).hexdigest()[:12]
