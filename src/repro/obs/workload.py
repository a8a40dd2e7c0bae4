"""Workload intelligence: per-fingerprint statement statistics.

:class:`StatementStats` is the pg_stat_statements analogue behind the
``sys.statements`` virtual relation: one aggregate row per statement
*template* (see :mod:`repro.esql.fingerprint`), accumulating calls,
rows, rewrite/eval/total time, rule firings and the failure-shaped
counters (shed / retries / cancelled / truncated / failed).  It is the
data substrate the ROADMAP's rewrite-result-caching and adaptive
rewrite-control items key off: "is this template hot?", "does its
rewrite time pay for itself?" become one SELECT.

:class:`PlanLog` is the companion ring behind ``sys.plan_nodes``: the
per-operator counters of the last N EXPLAIN ANALYZE runs (in-process
or shipped back from a pool worker), keyed by the same fingerprint so
plan shapes join against workload aggregates.

Both are owned by the :class:`~repro.engine.database.Database` (like
the rewrite ledger, they must survive ``regenerate_optimizer()``) and
are thread-safe: recording happens inside concurrent statements, and
the ``sys.*`` producers snapshot under the same mutex without ever
touching the writer lock.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

__all__ = ["StatementStats", "PlanLog"]

_TEMPLATE_PREVIEW = 200  # sys.statements keeps at most this much template


class _Entry:
    """One template's accumulated statistics."""

    __slots__ = ("template", "calls", "rows", "rewrite_ms", "eval_ms",
                 "total_ms", "min_ms", "max_ms", "rule_firings",
                 "shed", "retries", "cancelled", "truncated", "failed",
                 "plan_hits", "last_call")

    def __init__(self, template: str):
        self.template = template[:_TEMPLATE_PREVIEW]
        self.calls = 0
        self.rows = 0
        self.rewrite_ms = 0.0
        self.eval_ms = 0.0
        self.total_ms = 0.0
        self.min_ms: Optional[float] = None
        self.max_ms = 0.0
        self.rule_firings = 0
        self.shed = 0
        self.retries = 0
        self.cancelled = 0
        self.truncated = 0
        self.failed = 0
        self.plan_hits = 0  # calls served by the plan cache
        # the most recent call's own numbers (not the aggregate):
        # what a pool worker ships home, so the parent merges one
        # call's worth per reply instead of re-counting the replica's
        # running totals
        self.last_call: Optional[dict] = None


class StatementStats:
    """Thread-safe per-fingerprint aggregates (bounded).

    ``capacity`` bounds the number of distinct templates tracked; once
    full, *new* templates are folded into the ``(other)`` overflow row
    instead of evicting hot ones -- a workload with more templates
    than the cap keeps exact numbers for everything seen early and an
    honest remainder, which is the right trade for an always-on,
    unsampled aggregator.
    """

    OVERFLOW = "(other)"

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: dict[str, _Entry] = {}

    # -- recording ----------------------------------------------------------
    def _entry(self, fingerprint: str, template: str) -> _Entry:
        entry = self._entries.get(fingerprint)
        if entry is None:
            if len(self._entries) >= self.capacity \
                    and fingerprint != self.OVERFLOW:
                return self._entry(self.OVERFLOW, self.OVERFLOW)
            entry = self._entries[fingerprint] = _Entry(template)
        return entry

    def record_call(self, fingerprint: str, template: str,
                    rewrite_ms: float = 0.0, eval_ms: float = 0.0,
                    total_ms: Optional[float] = None,
                    rows: int = 0, rule_firings: int = 0,
                    plan_hit: bool = False) -> None:
        """One completed execution of the template (``plan_hit``: its
        plan came from the plan cache)."""
        if not fingerprint:
            return
        if total_ms is None:
            total_ms = rewrite_ms + eval_ms
        with self._lock:
            entry = self._entry(fingerprint, template)
            entry.calls += 1
            entry.rows += rows
            entry.rewrite_ms += rewrite_ms
            entry.eval_ms += eval_ms
            entry.total_ms += total_ms
            if entry.min_ms is None or total_ms < entry.min_ms:
                entry.min_ms = total_ms
            if total_ms > entry.max_ms:
                entry.max_ms = total_ms
            entry.rule_firings += rule_firings
            entry.plan_hits += plan_hit
            entry.last_call = {
                "fingerprint": fingerprint,
                "template": entry.template,
                "rewrite_ms": rewrite_ms,
                "eval_ms": eval_ms,
                "total_ms": total_ms,
                "rows": rows,
                "rule_firings": rule_firings,
                "plan_hit": plan_hit,
            }

    def note(self, fingerprint: str, template: str, field: str,
             count: int = 1) -> None:
        """Bump one failure-shaped counter (``shed`` / ``retries`` /
        ``cancelled`` / ``truncated`` / ``failed``) without recording
        a call -- the statement did not complete normally."""
        if not fingerprint:
            return
        with self._lock:
            entry = self._entry(fingerprint, template)
            setattr(entry, field, getattr(entry, field) + count)

    def merge_call(self, record: dict) -> None:
        """Fold a worker-shipped per-statement record (see
        :meth:`last`) into this aggregator -- the parent's
        ``sys.statements`` counts pooled executions too."""
        self.record_call(
            str(record.get("fingerprint", "")),
            str(record.get("template", "")),
            rewrite_ms=float(record.get("rewrite_ms", 0.0)),
            eval_ms=float(record.get("eval_ms", 0.0)),
            total_ms=float(record.get("total_ms", 0.0)),
            rows=int(record.get("rows", 0)),
            rule_firings=int(record.get("rule_firings", 0)),
            plan_hit=bool(record.get("plan_hit", False)),
        )

    # -- reading ------------------------------------------------------------
    def last(self, fingerprint: str) -> Optional[dict]:
        """The fingerprint's *most recent call* as a plain dict (the
        shape ``merge_call`` accepts); pool workers ship this back so
        the parent folds exactly one call's worth per reply."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or entry.last_call is None:
                return None
            return dict(entry.last_call)

    def rows(self) -> list[tuple]:
        """``sys.statements`` rows, hottest (most-called) first."""
        with self._lock:
            snapshot = list(self._entries.items())
        out = []
        for fingerprint, e in snapshot:
            mean = e.total_ms / e.calls if e.calls else 0.0
            out.append((
                fingerprint, e.template, e.calls, e.rows,
                e.rewrite_ms, e.eval_ms, e.total_ms, mean,
                e.min_ms if e.min_ms is not None else 0.0, e.max_ms,
                e.rule_firings, e.shed, e.retries, e.cancelled,
                e.truncated, e.failed, e.plan_hits,
            ))
        out.sort(key=lambda row: (-row[2], row[0]))
        return out

    @property
    def tracked(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class PlanLog:
    """The last N analyzed plans, as flattened per-operator rows.

    One record per EXPLAIN ANALYZE execution: the statement's
    fingerprint and trace id plus the
    :meth:`~repro.engine.analyze.AnalyzeCollector.snapshot` node list
    (operator, rows, loops, self/total ms, bytes).  ``sys.plan_nodes``
    flattens the ring, newest plan last.
    """

    def __init__(self, capacity: int = 16):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._recorded = 0

    def push(self, fingerprint: str, trace_id: str,
             nodes: list[dict]) -> None:
        with self._lock:
            self._recorded += 1
            self._ring.append({
                "plan": self._recorded,
                "fingerprint": fingerprint,
                "trace_id": trace_id,
                "nodes": list(nodes),
            })

    def plans(self) -> list[dict]:
        with self._lock:
            return list(self._ring)

    def rows(self) -> list[tuple]:
        """``sys.plan_nodes`` rows: one per operator per kept plan."""
        out = []
        for plan in self.plans():
            for node in plan["nodes"]:
                out.append((
                    plan["plan"], plan["fingerprint"],
                    plan["trace_id"], int(node.get("node", 0)),
                    str(node.get("operator", "")),
                    str(node.get("hash", "")),
                    int(node.get("depth", 0)),
                    int(node.get("rows", 0)),
                    int(node.get("loops", 0)),
                    float(node.get("self_ms", 0.0)),
                    float(node.get("total_ms", 0.0)),
                    int(node.get("bytes", 0)),
                ))
        return out

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._recorded

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
