"""The pool-chaos acceptance scenario: a kill -9 storm under load.

Reader and writer threads hammer one durable, served database while
:class:`~repro.pool.WorkerChaos` SIGKILLs random pool workers at
random intervals.  The run must end with the server still serving,
zero fsck violations, a gap-free WAL, and the recovered database equal
to exactly the committed batches -- worker corpses are an execution
detail, never a durability event.

The default duration keeps the tier-1 run fast; CI's ``pool-chaos``
job raises it (and the thread count) via ``POOL_CHAOS_SECONDS`` /
``POOL_CHAOS_THREADS``.
"""

import os
import threading
import time

from repro import Database
from repro.durability.wal import scan_wal
from repro.errors import ServerOverloaded, WorkerCrashed
from repro.pool import PoolConfig, WorkerChaos
from repro.server import Server

CHAOS_SECONDS = float(os.environ.get("POOL_CHAOS_SECONDS", "2"))
CHAOS_THREADS = int(os.environ.get("POOL_CHAOS_THREADS", "6"))

_BATCH = 3   # rows per INSERT statement (the atomicity probe)
_SCALE = 7   # the V = Id * _SCALE invariant


def _batch_insert(writer: int, round_: int) -> str:
    base = 1_000_000 * writer + _BATCH * round_
    values = ", ".join(
        f"({i}, {i * _SCALE})" for i in range(base, base + _BATCH)
    )
    return f"INSERT INTO INV VALUES {values}"


class _Harness:
    def __init__(self):
        self.stop = threading.Event()
        self.lock = threading.Lock()
        self.violations: list[str] = []
        self.batches_written = 0
        self.reads = 0
        self.sheds = 0
        self.crash_surfaced = 0  # retry budget exhausted mid-storm

    def violation(self, text: str) -> None:
        with self.lock:
            self.violations.append(text)


def _writer(harness, server, writer_id):
    session = server.open_session(f"writer-{writer_id}")
    round_ = 0
    while not harness.stop.is_set():
        try:
            server.execute(_batch_insert(writer_id, round_),
                           session=session.id)
        except ServerOverloaded:
            harness.sheds += 1
            time.sleep(0.01)
            continue
        except Exception as error:  # noqa: BLE001
            harness.violation(f"writer-{writer_id}: {error!r}")
            return
        with harness.lock:
            harness.batches_written += 1
        round_ += 1


def _reader(harness, server, reader_id):
    session = server.open_session(f"reader-{reader_id}")
    while not harness.stop.is_set():
        try:
            rows = server.query("SELECT Id, V FROM INV",
                                session=session.id).rows
        except ServerOverloaded:
            harness.sheds += 1
            time.sleep(0.01)
            continue
        except WorkerCrashed:
            # the storm can kill every retry of one read; surfacing a
            # typed error is the contract, corrupting state is not
            harness.crash_surfaced += 1
            continue
        except Exception as error:  # noqa: BLE001
            harness.violation(f"reader-{reader_id}: {error!r}")
            return
        harness.reads += 1
        # statement-boundary consistency: whole batches, invariant V
        if len(rows) % _BATCH:
            harness.violation(
                f"reader-{reader_id}: torn batch ({len(rows)} rows)")
        for row_id, value in rows:
            if value != row_id * _SCALE:
                harness.violation(
                    f"reader-{reader_id}: Id {row_id} has V {value}")
                break


def test_kill9_storm_never_corrupts_state(tmp_path):
    path = str(tmp_path / "chaos.db")
    db = Database(path=path, resilient=True)
    db.execute("TABLE INV (Id : NUMERIC, V : NUMERIC, PRIMARY KEY (Id))")
    server = Server(db)
    pool = server.enable_pool(2, config=PoolConfig(
        workers=2, monitor_interval_s=0.02,
        restart_backoff_base_s=0.01, restart_backoff_max_s=0.1,
        crash_loop_threshold=1000,  # the storm must not break the pool
    ))
    assert pool.wait_ready(timeout_s=60.0, workers=2)
    chaos = WorkerChaos(pool, interval_s=0.15, seed=1234)
    harness = _Harness()

    writers = max(1, CHAOS_THREADS // 3)
    readers = max(1, CHAOS_THREADS - writers)
    threads = (
        [threading.Thread(target=_writer, args=(harness, server, i))
         for i in range(writers)]
        + [threading.Thread(target=_reader, args=(harness, server, i))
           for i in range(readers)]
    )
    try:
        chaos.start()
        for thread in threads:
            thread.start()
        time.sleep(CHAOS_SECONDS)
    finally:
        harness.stop.set()
        for thread in threads:
            thread.join(timeout=60.0)
        chaos.stop()
    assert not any(thread.is_alive() for thread in threads)

    # the storm actually fired, and the workload actually ran
    assert chaos.kills >= 1
    assert harness.batches_written > 0
    assert harness.reads > 0
    assert harness.violations == []

    # the server is still serving, through the (respawned) pool
    final = server.query("SELECT Id, V FROM INV").rows
    assert len(final) == harness.batches_written * _BATCH
    assert all(value == row_id * _SCALE for row_id, value in final)

    # worker corpses never became durability events
    assert db.fsck().violations == []
    scan = scan_wal(db.durability.wal.path)
    lsns = [record["lsn"] for record in scan.records]
    assert lsns == list(range(1, len(lsns) + 1))

    server.close()
    db.close()

    # cold recovery replays to exactly the committed batches
    recovered = Database(path=path)
    try:
        rows = recovered.query("SELECT Id, V FROM INV").rows
        assert sorted(rows) == sorted(final)
        assert recovered.fsck().violations == []
    finally:
        recovered.close()
