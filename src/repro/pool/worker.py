"""The worker process: a crash-isolated replica executing one
statement at a time.

``python -m repro.pool.worker`` is what the
:class:`~repro.pool.supervisor.Supervisor` spawns.  The first frame on
stdin is a ``boot`` message carrying a snapshot-codable view of the
parent database (the durability layer's
:func:`~repro.durability.snapshot.snapshot_state` payload) plus the
committed-statement feed; the worker rebuilds a private
:class:`~repro.engine.database.Database` from it and then serves
``execute`` requests until stdin closes or a ``shutdown`` frame
arrives.

Three threads:

* the **main** thread pulls requests off an internal queue and
  evaluates them -- one statement at a time, matching the parent-side
  contract that a worker is either idle or owns exactly one statement;
* a **reader** thread drains stdin so ``cancel`` frames are observed
  *while* a statement is evaluating (it pulls the local registry's
  cancel token; the evaluating thread unwinds cooperatively).  EOF on
  stdin means the supervisor is gone: the worker ``os._exit(0)``s
  rather than orphan itself;
* a **heartbeat** thread writes a beacon frame every
  ``heartbeat_interval_s`` so the supervisor can tell a wedged worker
  from a busy one.  The ``stall`` test hook pauses it, which is how
  the suite simulates a worker stuck in a native call.

Statement errors are not crashes: any :class:`~repro.errors.ReproError`
(or stray exception) becomes a typed ``error`` frame and the worker
lives on.  Only process death -- a real crash, a kill -9, a missed
heartbeat -- is handled by the supervisor's failover machinery.
"""

from __future__ import annotations

import os
import queue
import sys
import threading
import time

from repro.durability.snapshot import encode_value, restore_state
from repro.engine.analyze import AnalyzeCollector
from repro.engine.database import Database
from repro.engine.options import StatementOptions, collect
from repro.errors import ReproError, error_payload
from repro.esql import ast
from repro.esql.parser import parse_script_with_sources
from repro.pool.protocol import FrameError, recv_frame, send_frame

__all__ = ["worker_main"]


class _Worker:
    def __init__(self, stdin, stdout):
        self.stdin = stdin
        self.stdout = stdout
        self.out_lock = threading.Lock()
        self.requests: queue.Queue = queue.Queue()
        self.db: Database | None = None
        self.version = 0
        self.heartbeat_interval_s = 0.2
        self.heartbeat_paused = False
        self.statements = 0
        # the bench the parent's last frame listed (see _mirror_bench)
        self.parent_bench: frozenset = frozenset()

    # -- framing ---------------------------------------------------------------
    def send(self, message: dict) -> None:
        try:
            with self.out_lock:
                send_frame(self.stdout, message)
        except (BrokenPipeError, OSError):
            # the supervisor is gone; there is nobody to report to
            os._exit(0)

    # -- boot ------------------------------------------------------------------
    def boot(self) -> None:
        frame = recv_frame(self.stdin)
        if frame is None or frame.get("type") != "boot":
            os._exit(2)
        self.heartbeat_interval_s = float(
            frame.get("heartbeat_interval_s", 0.2)
        )
        # the parent's engine-level settings, as constructor arguments
        db = Database(**(frame.get("engine") or {}))
        # every statement killable: the supervisor's cancel frame pulls
        # the local registry's token from the reader thread
        db.govern_statements = True
        restore_state(db, frame["state"])
        for sql in frame.get("feed", ()):
            db._replay_statement(sql)
        self.version = int(frame.get("version", 0))
        self.db = db
        self.send({"type": "hello", "pid": os.getpid(),
                   "version": self.version})

    # -- threads ---------------------------------------------------------------
    def reader(self) -> None:
        while True:
            try:
                frame = recv_frame(self.stdin)
            except FrameError:
                frame = None
            if frame is None:
                # supervisor died or closed us out: self-reap, never
                # linger as an orphan evaluating into a closed pipe
                self.requests.put({"type": "shutdown"})
                return
            if frame["type"] == "cancel":
                # observed mid-statement on purpose; cancel_all is
                # exact because a worker owns at most one statement
                self.db.lifecycle.cancel_all(
                    frame.get("reason", "kill")
                )
                continue
            self.requests.put(frame)

    def heartbeat(self) -> None:
        while True:
            time.sleep(self.heartbeat_interval_s)
            if not self.heartbeat_paused:
                self.send({"type": "heartbeat", "pid": os.getpid(),
                           "statements": self.statements})

    # -- the statement loop ----------------------------------------------------
    def run(self) -> None:
        self.boot()
        threading.Thread(target=self.reader, daemon=True).start()
        threading.Thread(target=self.heartbeat, daemon=True).start()
        while True:
            frame = self.requests.get()
            kind = frame["type"]
            if kind == "shutdown":
                os._exit(0)
            if kind == "exit":  # chaos hook: die like a native crash
                os._exit(int(frame.get("code", 1)))
            if kind == "stall":  # chaos hook: wedge without heartbeats
                self.heartbeat_paused = not frame.get("beat", False)
                time.sleep(float(frame.get("seconds", 1.0)))
                self.heartbeat_paused = False
                continue
            if kind == "execute":
                self.execute(frame)

    def execute(self, frame: dict) -> None:
        db = self.db
        request_id = frame.get("id")
        started = time.perf_counter()
        try:
            for sql in frame.get("sync", ()):
                db._replay_statement(sql)
            self.version = int(frame.get("version", self.version))
            reply = self._run_statement(frame)
        except ReproError as error:
            reply = {"type": "error", "payload": error_payload(error)}
        except Exception as error:  # never die on a statement error
            reply = {"type": "error", "payload": error_payload(error)}
        reply["id"] = request_id
        reply["version"] = self.version
        reply["elapsed_ms"] = (time.perf_counter() - started) * 1e3
        self.statements += 1
        self.send(reply)

    def _run_statement(self, frame: dict) -> dict:
        """One statement under the *parent's* resolved options and
        quarantine (both ride the frame whole).  A statement the parent
        classified as a query goes to the replica's ``Database.query``
        as text, so a plan-cache hit is never parsed; an unclassified
        one is parsed here once, and anything but a query runs through
        ``execute``."""
        db = self.db
        options = StatementOptions(**(frame.get("options") or {}))
        benched = frozenset(frame.get("quarantine", ()))
        self._mirror_bench(benched)
        source = query = frame["source"]
        if not frame.get("query"):
            statements = parse_script_with_sources(source)
            if not (len(statements) == 1
                    and ast.is_query(statements[0][0])):
                # the isolation-test path: DML applies to this worker's
                # private copy under its own undo log; the parent
                # database is untouched (the server never routes DML
                # here)
                db.execute(statements, options=options)
                return {"type": "result", "rows": None, "columns": [],
                        "types": [], **self._work_counters(),
                        **self._statement_record(source),
                        **self._benched_here(benched)}
            query = statements[0]
        collector = AnalyzeCollector() if options.analyze else None
        result = db.query(query,
                          options=collect(options, analyze=collector))
        reply = {
            "type": "result",
            "rows": [[encode_value(v) for v in row]
                     for row in result.rows],
            "columns": list(result.schema.names),
            "types": [getattr(t, "name", None) or str(t)
                      for __, t in result.schema],
            **self._work_counters(),
            **self._statement_record(source),
            **self._benched_here(benched),
        }
        if collector is not None:
            # per-operator actuals ride the reply so the supervisor can
            # fold them into the parent's sys.plan_nodes ring
            reply["analyze"] = collector.snapshot()
        return reply

    def _mirror_bench(self, benched: frozenset) -> None:
        """Make the parent's bench this replica's: a rule benched there
        must not fire here, and a rule the parent listed before and no
        longer does was lifted there, so it is lifted here.  A rule
        this replica benched itself stays until the parent has heard
        of it (listed it once); from then on the parent decides."""
        registry = self.db.quarantine
        mine = registry.rules()
        for rule in (mine & self.parent_bench) - benched:
            registry.lift(rule)
        for rule in benched - mine:
            registry.note("", rule, "benched on the parent", "parent")
        self.parent_bench = benched

    def _benched_here(self, benched: frozenset) -> dict:
        """What this replica benched itself (checked-mode blame, a
        crash past the threshold) rides home in every reply until a
        frame lists it: the supervisor notes it in the parent's
        registry."""
        entries = [entry.as_dict() for entry in self.db.quarantine.entries()
                   if entry.rule not in benched]
        return {"quarantine": entries} if entries else {}

    def _statement_record(self, source: str) -> dict:
        """The statement's per-call workload record (this replica's
        ``sys.statements`` entry for its last call), shipped so the
        parent aggregates pooled executions too."""
        from repro.esql.fingerprint import fingerprint_source
        record = self.db.workload.last(
            fingerprint_source(source).fingerprint
        )
        return {"statement": record} if record is not None else {}

    def _work_counters(self) -> dict:
        recent = self.db.lifecycle.recent()
        if not recent:
            return {"rows_charged": 0, "bytes_peak": 0,
                    "truncated": False}
        context = recent[-1]
        return {
            "rows_charged": context.rows_charged,
            "bytes_peak": context.memory.peak,
            "truncated": context.truncated,
        }


def worker_main() -> None:
    _Worker(sys.stdin.buffer, sys.stdout.buffer).run()


if __name__ == "__main__":
    worker_main()
