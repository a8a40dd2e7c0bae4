"""In-memory spans and counts for the traced run.

A span is ``{name, start, end, parent, stmt}``: the probes in
:mod:`probes` open one around each call into a layer, the harness opens
a root span per statement, and everything stays in per-thread lists
until the pass is over (:meth:`Tracer.drain`).  Counts are taken at the
same boundaries.  A layer's *self time* is its span minus its direct
children, so the self times of one statement's spans add up to its
root span exactly and "unattributed" is just the root's own self time.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter

__all__ = ["Tracer", "self_times", "stage_times", "inclusive_times",
           "write_jsonl"]

# span fields, by position (lists, not objects: begin/end sit inside
# the timed region of every traced statement)
NAME, STMT, PARENT, START, END = range(5)


class _ThreadState:
    __slots__ = ("spans", "top", "stmt", "counts")

    def __init__(self):
        self.spans: list = []
        self.top = -1
        self.stmt = -1
        self.counts: dict = {}


class Tracer:
    """Span and count sink; one buffer per thread, merged on drain."""

    def __init__(self):
        self._local = threading.local()
        self._states: list = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def begin(self, name: str, stmt: int = -1) -> int:
        """Open a span under the innermost open one; ``stmt`` >= 0
        marks a statement root."""
        state = self._state()
        if stmt >= 0:
            state.stmt = stmt
        spans = state.spans
        index = len(spans)
        spans.append([name, state.stmt, state.top, 0.0, 0.0])
        state.top = index
        spans[index][START] = perf_counter()
        return index

    def end(self, index: int) -> None:
        now = perf_counter()
        state = self._local.state
        span = state.spans[index]
        span[END] = now
        state.top = span[PARENT]
        if span[PARENT] < 0:
            state.stmt = -1  # a root closed: later spans belong to no one

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a count; ignored outside a statement (set-up and
        restore run through the same probed entry points)."""
        state = self._state()
        if state.stmt >= 0:
            counts = state.counts
            counts[name] = counts.get(name, 0) + amount

    def drain(self) -> tuple:
        """``(threads, counts)``: one span list per thread (parent
        indices are thread-local) and the summed counts; resets."""
        with self._lock:
            states, self._states = self._states, []
        self._local = threading.local()
        counts: dict = {}
        for state in states:
            for name, amount in state.counts.items():
                counts[name] = counts.get(name, 0) + amount
        return [s.spans for s in states], counts


def self_times(spans: list) -> list:
    """Per span: its duration minus its direct children's."""
    own = [s[END] - s[START] for s in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def stage_times(threads: list, statements: int) -> dict:
    """``name -> [self seconds per statement]`` over all threads; each
    statement's entries sum to its root span's duration."""
    table: dict = {}
    for spans in threads:
        for span, own in zip(spans, self_times(spans)):
            if span[STMT] < 0:
                continue
            row = table.get(span[NAME])
            if row is None:
                row = table[span[NAME]] = [0.0] * statements
            row[span[STMT]] += own
    return table


def inclusive_times(threads: list, statements: int, name: str) -> list:
    """Seconds per statement inside spans called ``name``, children
    included (a span nested in a same-named one is not counted twice)."""
    row = [0.0] * statements
    for spans in threads:
        for span in spans:
            if span[NAME] != name or span[STMT] < 0:
                continue
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                row[span[STMT]] += span[END] - span[START]
    return row


def write_jsonl(path: str, threads: list) -> int:
    """Flush spans as one JSON object per line; returns the count."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for thread, spans in enumerate(threads):
            for index, span in enumerate(spans):
                handle.write(json.dumps({
                    "name": span[NAME], "start": span[START],
                    "end": span[END], "thread": thread, "id": index,
                    "parent": span[PARENT], "stmt": span[STMT],
                }) + "\n")
                written += 1
    return written
