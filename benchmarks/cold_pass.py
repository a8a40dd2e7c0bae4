"""Time the reads a plan cache cannot serve: first executions.

``benchmarks/perf`` times steady-state passes, in which every read text
has been seen before.  This script times the other case, on the four
in-memory perf workloads:

* **first** -- the first execution of every distinct read text of the
  workload (seed 7), on a freshly loaded database;
* **never seen** -- then, on the same database, the first execution of
  every read text of the same workload built from another seed (8)
  that the first pass did not contain.

Each repetition builds a new database and empties the process-wide
statement-fingerprint memo, so every timed statement is a genuine
first sighting.  Times are calibrated the way ``benchmarks/perf``
calibrates them: the perf harness's kernel is timed around every
``CHUNK`` statements, and each statement's reading is divided by the
speed factor those two timings give (milliseconds at reference
speed).  It prints, per workload, the median over repetitions of each
pass's per-statement p50, as one JSON object.

Run from the root of a checkout::

    python3 benchmarks/cold_pass.py [--reps 5] [--workloads a,b]

Compare two trees by running each from its own checkout, alternating.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.perf.measure import (kernel_seconds, load,  # noqa: E402
                                     speed_factor)
from benchmarks.perf.workloads import build  # noqa: E402

WORKLOADS = ("point_filter", "join_heavy", "recursive_view",
             "rewrite_heavy")
CHUNK = 16  # statements between two kernel timings


def _reads(workload) -> list:
    """Distinct read texts, in order of first appearance."""
    seen: dict = {}
    for statement in workload.statements:
        if statement.kind == "read":
            seen.setdefault(statement.text, None)
    return list(seen)


def _timed(db, texts) -> list:
    """Seconds per statement at reference speed."""
    times = []
    for at in range(0, len(texts), CHUNK):
        before = kernel_seconds()
        chunk = []
        for text in texts[at:at + CHUNK]:
            started = perf_counter()
            db.query(text)
            chunk.append(perf_counter() - started)
        factor = speed_factor((before, kernel_seconds()))
        times.extend(t / factor for t in chunk)
    return times


def one_rep(name: str) -> tuple:
    from repro import Database
    from repro.esql import fingerprint
    workload = build(name, 7)
    first = _reads(workload)
    unseen = [t for t in _reads(build(name, 8)) if t not in set(first)]
    db = Database()
    load(db, workload)
    fingerprint._memo.clear()
    gc.collect()
    first_times = _timed(db, first)
    unseen_times = _timed(db, unseen)
    db.close()
    return (statistics.median(first_times) * 1e3,
            statistics.median(unseen_times) * 1e3 if unseen_times
            else None, len(first), len(unseen))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    out = {}
    for name in args.workloads.split(","):
        reps = [one_rep(name) for __ in range(args.reps)]
        unseen = [r[1] for r in reps if r[1] is not None]
        out[name] = {
            "first_p50_ms": statistics.median(r[0] for r in reps),
            "never_seen_p50_ms": (statistics.median(unseen)
                                  if unseen else None),
            "first_texts": reps[0][2],
            "never_seen_texts": reps[0][3],
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
