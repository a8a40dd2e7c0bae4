"""Cancellation chaos under the 16-thread stress shape.

The server-stress harness proves the serving layer holds under load;
this suite turns lifecycle governance against it: a deterministic
:class:`~repro.lifecycle.ChaosInjector` rides every statement, pulling
cancel tokens and tripping synthetic budgets mid-evaluation, while a
pair of killer threads reap anything slow through the registry.  The
acceptance bar is the ISSUE's: typed errors only, zero fsck
violations, no partial DML (every surviving row a whole batch, every
row's invariant intact), a gap-free WAL, and a writer lock that is
free when the storm ends.

``LIFECYCLE_CHAOS_SECONDS`` raises the duration in CI's chaos job;
the default keeps tier-1 fast.
"""

import os
import threading
import time

from repro import Database
from repro.durability.wal import scan_wal
from repro.errors import (BudgetExceeded, QueryCancelled,
                          ServerOverloaded)
from repro.lifecycle import ChaosInjector
from repro.server import Server

CHAOS_SECONDS = float(os.environ.get("LIFECYCLE_CHAOS_SECONDS", "2"))

_BATCH = 80         # rows per INSERT: big enough to cross the
                    # 64-tick check interval, so writes are injectable
_SCALE = 7          # the V = Id * _SCALE invariant
_WRITERS = 4
_READERS = 6
_DEGRADE = 2        # readers running with degrade-mode budgets
_SYS = 2            # readers watching sys.queries itself
_KILLERS = 2        # threads reaping via the registry

_TOLERATED = (QueryCancelled, BudgetExceeded)


def _build(path):
    db = Database(path=path, resilient=True)
    db.execute(
        "TABLE INV (Id : NUMERIC, V : NUMERIC, PRIMARY KEY (Id))"
    )
    # every statement forks an independently-seeded injector: faults
    # land mid-evaluation on the cooperative check path
    db.chaos = ChaosInjector(
        seed=1337, cancel_rate=0.04, budget_rate=0.04, min_checks=2
    )
    return db


def _batch_insert(writer: int, round_: int) -> str:
    base = 1_000_000 * writer + _BATCH * round_
    values = ", ".join(
        f"({i}, {i * _SCALE})" for i in range(base, base + _BATCH)
    )
    return f"INSERT INTO INV VALUES {values}"


class Harness:
    def __init__(self, server):
        self.server = server
        self.stop = threading.Event()
        self.lock = threading.Lock()
        self.violations = []
        self.failures = []
        self.batches_written = 0
        self.cancels = 0
        self.budget_trips = 0
        self.kills_sent = 0

    def violation(self, text):
        with self.lock:
            self.violations.append(text)

    def failure(self, error):
        with self.lock:
            self.failures.append(repr(error))

    def wrote(self):
        with self.lock:
            self.batches_written += 1

    def tolerated(self, error):
        with self.lock:
            if isinstance(error, QueryCancelled):
                self.cancels += 1
            else:
                self.budget_trips += 1


def _guarded(harness, body):
    """Run one request; classify the outcome."""
    try:
        body()
        return True
    except _TOLERATED as error:
        harness.tolerated(error)
    except ServerOverloaded:
        time.sleep(0.01)
    except Exception as error:  # pragma: no cover
        harness.failure(error)
        harness.stop.set()
    return False


def _writer(harness, tag):
    session = harness.server.open_session(f"writer-{tag}")
    round_ = 0
    while not harness.stop.is_set():
        committed = _guarded(harness, lambda: harness.server.execute(
            _batch_insert(tag, round_), session=session.id
        ))
        if committed:
            harness.wrote()
        # an aborted batch is retried under fresh ids: simplest way to
        # keep every surviving row unique without coordinating writers
        round_ += 1


def _reader(harness, tag):
    session = harness.server.open_session(f"reader-{tag}")
    while not harness.stop.is_set():
        box = {}

        def read():
            box["rows"] = harness.server.query(
                "SELECT Id, V FROM INV", session=session.id
            ).rows

        if not _guarded(harness, read):
            continue
        rows = box["rows"]
        if len(rows) % _BATCH != 0:
            harness.violation(
                f"torn read: {len(rows)} rows is not a multiple of "
                f"the {_BATCH}-row batch"
            )
        for row_id, value in rows:
            if value != row_id * _SCALE:
                harness.violation(f"corrupt row ({row_id}, {value})")
                break


def _degrade_reader(harness, tag):
    """Budgeted, degrade-mode reads: truncation is a legal outcome,
    so only the per-row invariant is checked (a truncated prefix of a
    consistent snapshot is still row-wise consistent)."""
    from repro.server import SessionSettings
    session = harness.server.open_session(
        f"degrade-{tag}",
        settings=SessionSettings(row_budget=150, degrade=True),
    )
    while not harness.stop.is_set():
        box = {}

        def read():
            box["rows"] = harness.server.query(
                "SELECT Id, V FROM INV", session=session.id
            ).rows

        if not _guarded(harness, read):
            continue
        for row_id, value in box["rows"]:
            if value != row_id * _SCALE:
                harness.violation(
                    f"degrade read saw corrupt row "
                    f"({row_id}, {value})"
                )
                break


def _sys_reader(harness, tag):
    """Watches sys.queries while the storm rages: every row must be
    well-formed, and the relation must never fail to materialize."""
    session = harness.server.open_session(f"sys-{tag}")
    while not harness.stop.is_set():
        box = {}

        def read():
            box["rows"] = harness.server.query(
                "SELECT QueryId, Phase, ElapsedMs FROM sys.queries",
                session=session.id,
            ).rows

        if not _guarded(harness, read):
            continue
        for query_id, phase, elapsed in box["rows"]:
            if not query_id.startswith("q") or elapsed < 0:
                harness.violation(
                    f"malformed sys.queries row "
                    f"({query_id}, {phase}, {elapsed})"
                )
                break


def _killer(harness, tag):
    """Reaps long-running statements through the registry, the same
    path Server.kill and Ctrl-C use."""
    registry = harness.server.db.lifecycle
    while not harness.stop.is_set():
        for context in registry.active():
            if context.elapsed_ms() > 25.0:
                if harness.server.kill(context.query_id):
                    with harness.lock:
                        harness.kills_sent += 1
        time.sleep(0.005)


def test_cancellation_chaos_storm(tmp_path):
    path = str(tmp_path / "chaos.db")
    db = _build(path)
    server = Server(db)
    harness = Harness(server)

    threads = (
        [threading.Thread(target=_writer, args=(harness, t))
         for t in range(_WRITERS)]
        + [threading.Thread(target=_reader, args=(harness, t))
           for t in range(_READERS)]
        + [threading.Thread(target=_degrade_reader, args=(harness, t))
           for t in range(_DEGRADE)]
        + [threading.Thread(target=_sys_reader, args=(harness, t))
           for t in range(_SYS)]
        + [threading.Thread(target=_killer, args=(harness, t))
           for t in range(_KILLERS)]
    )
    assert len(threads) == 16
    for t in threads:
        t.start()
    time.sleep(CHAOS_SECONDS)
    harness.stop.set()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads)
    db.chaos = None  # the verification queries run fault-free
    try:
        # the storm actually stormed: work committed AND faults landed
        assert harness.batches_written > 0
        assert harness.cancels + harness.budget_trips > 0
        assert harness.failures == []
        assert harness.violations == []

        # no partial DML: exactly the committed batches survive, and
        # every surviving row satisfies the invariant
        final = db.query("SELECT Id, V FROM INV").rows
        assert len(final) == harness.batches_written * _BATCH
        assert all(value == row_id * _SCALE for row_id, value in final)

        # the writer lock is free: a fresh write admits immediately
        with server.guard.write():
            pass

        # on-disk state is clean with a gap-free WAL
        assert db.fsck().violations == []
        scan = scan_wal(db.durability.wal.path)
        lsns = [record["lsn"] for record in scan.records]
        assert lsns == list(range(1, len(lsns) + 1))
    finally:
        server.close()

    # and the WAL replays to the same committed image
    db.close()
    recovered = Database(path=path)
    try:
        assert recovered.fsck().violations == []
        rows = recovered.query("SELECT Id FROM INV").rows
        assert len(rows) == harness.batches_written * _BATCH
    finally:
        recovered.close()
