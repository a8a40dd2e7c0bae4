"""The pool behind the server: routing, fallback, kill, introspection,
explain's execution section and the CLI ``.workers`` verbs."""

import threading
import time

import pytest

from repro.cli import Shell
from repro.core.explain import validate_explain
from repro.engine.database import Database
from repro.errors import QueryCancelled
from repro.pool import PoolConfig
from repro.server import Server


def _server(workers=1, config=None):
    db = Database()
    db.execute("CREATE TABLE T (A : INT, B : INT)")
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
    server = Server(db)
    pool = server.enable_pool(
        workers, config=config or PoolConfig(
            workers=workers, monitor_interval_s=0.02,
            restart_backoff_base_s=0.01,
        ),
    )
    assert pool.wait_ready(timeout_s=60.0, workers=workers)
    return server


class TestRouting:
    def test_eligible_reads_run_on_the_pool(self):
        server = _server()
        try:
            result = server.query("SELECT A, B FROM T WHERE A = 2")
            assert result.rows == [(2, 20)]
            assert server.pool.dispatched == 1
            assert server.stats()["pool"]["dispatched"] == 1
        finally:
            server.close()

    def test_writes_stay_in_process_and_reads_see_them(self):
        server = _server()
        try:
            server.execute("INSERT INTO T VALUES (4, 40)")
            rows = server.query("SELECT A FROM T").rows
            assert sorted(rows) == [(1,), (2,), (3,), (4,)]
            # the write itself was never dispatched
            assert server.pool.dispatched == 1
        finally:
            server.close()

    def test_union_selects_are_pooled_reads(self):
        # regression (qa tier oracle find): a top-level UNION parses
        # as ast.UnionSelect, which the worker's Select-only read
        # check sent down the DML path -- it ran as a write on the
        # worker's private replica and returned no rows
        server = _server()
        try:
            query = "SELECT A FROM T UNION SELECT A FROM T"
            rows = server.query(query).rows
            assert sorted(rows) == [(1,), (2,), (3,)]
            assert server.pool.dispatched == 1  # classified as a read
        finally:
            server.close()

    def test_every_read_is_dispatched_or_falls_back(self):
        """Twelve reads in turn all reach a worker; sixteen more from
        four threads over two workers are each dispatched or served by
        the in-process fallback: a saturated pool degrades, never drops."""
        server = _server(workers=2)
        try:
            for __ in range(12):
                assert len(server.query("SELECT A, B FROM T").rows) == 3
            summary = server.pool.summary()
            assert (summary["dispatched"], summary["crashes"],
                    summary["restarts"]) == (12, 0, 0)
            counters = server.metrics.snapshot()["counters"]
            assert counters.get("pool.fallbacks", 0) == 0

            def reader():
                for __ in range(4):
                    assert len(server.query("SELECT A FROM T").rows) == 3

            threads = [threading.Thread(target=reader) for __ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            counters = server.metrics.snapshot()["counters"]
            assert counters["server.requests.read"] == 28
            assert (counters["pool.dispatched"]
                    + counters.get("pool.fallbacks", 0)) == 28
            assert server.pool.summary()["crashes"] == 0
        finally:
            server.close()

    def test_sys_reads_stay_in_process(self):
        server = _server()
        try:
            before = server.pool.dispatched
            names = server.query("SELECT Name FROM sys.relations").rows
            assert ("SYS.WORKERS",) in names
            assert server.pool.dispatched == before
        finally:
            server.close()

    def test_unavailable_pool_degrades_to_in_process(self):
        server = _server()
        try:
            # the supervisor dies out from under the server (crash
            # loop, operator stop): reads must degrade, not fail
            server.pool.stop()
            rows = server.query("SELECT A FROM T WHERE A = 1").rows
            assert rows == [(1,)]
            counters = server.metrics.snapshot()["counters"]
            assert counters.get("pool.fallbacks", 0) >= 1
        finally:
            server.close()

    def test_disable_pool_detaches_cleanly(self):
        server = _server()
        try:
            hook = server.pool.note_write
            server.disable_pool()
            assert server.pool is None
            assert hook not in server.db.commit_hooks
            assert server.query("SELECT A FROM T WHERE A = 3").rows \
                == [(3,)]
        finally:
            server.close()


class TestKill:
    def test_server_kill_terminates_the_pooled_statement(self):
        from repro.pool.protocol import send_frame
        server = _server(config=PoolConfig(
            workers=1, monitor_interval_s=0.02, kill_grace_s=0.2,
        ))
        try:
            pool = server.pool
            slot = pool._slots[0]
            # wedge the worker so the statement is genuinely in flight
            # when the kill arrives
            send_frame(slot.proc.stdin,
                       {"type": "stall", "seconds": 30.0, "beat": True})
            outcome = {}

            def run():
                try:
                    server.query("SELECT A FROM T")
                except Exception as error:  # noqa: BLE001
                    outcome["error"] = error

            thread = threading.Thread(target=run)
            thread.start()
            # find the in-flight statement through the registry (what
            # sys.queries shows) and kill it by id
            query_id = None
            deadline = time.perf_counter() + 30.0
            while query_id is None and time.perf_counter() < deadline:
                active = server.db.lifecycle.active()
                if active:
                    query_id = active[0].query_id
                else:
                    time.sleep(0.01)
            assert query_id is not None
            assert server.kill(query_id)
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert isinstance(outcome.get("error"), QueryCancelled)
            # the registry's done-ring records the worker it ran on
            done = server.query(
                "SELECT Worker, Cancelled FROM sys.queries"
            ).rows
            assert ("w1", True) in done
        finally:
            server.close()


class TestDeadline:
    def test_a_stalled_worker_is_killed_at_the_statement_deadline(self):
        """The worker runs on its own clock, so the dispatcher enforces
        the statement's deadline: a cancel frame once it has passed,
        then -- the worker is wedged but still beating, so the monitor
        sees nothing wrong -- a SIGKILL after ``kill_grace_s``."""
        from repro.pool.protocol import send_frame
        from repro.server import SessionSettings
        server = _server(config=PoolConfig(workers=1, kill_grace_s=0.2))
        try:
            pool = server.pool
            send_frame(pool._slots[0].proc.stdin,
                       {"type": "stall", "seconds": 30, "beat": True})
            session = server.open_session(
                settings=SessionSettings(timeout_ms=100))
            started = time.perf_counter()
            with pytest.raises(QueryCancelled):
                server.query("SELECT A FROM T", session=session.id)
            assert time.perf_counter() - started < 1.0
            assert pool.escalated_kills == 1
        finally:
            server.close()

    @staticmethod
    def _after_cancel_frame(reason, degrade=True):
        """A worker's reader, in process, reads one cancel frame while
        its database runs one registered statement; returns the
        statement's context."""
        import io

        from repro.lifecycle.context import QueryContext
        from repro.pool.protocol import send_frame
        from repro.pool.worker import _Worker
        frames = io.BytesIO()
        send_frame(frames, {"type": "cancel", "reason": reason})
        frames.seek(0)
        worker = _Worker(frames, io.BytesIO())
        worker.db = Database()
        context = worker.db.lifecycle.begin(
            QueryContext(timeout_ms=60_000, degrade=degrade))
        worker.reader()  # the one frame, then EOF
        return context

    @pytest.mark.parametrize("degrade", [True, False])
    def test_a_deadline_frame_trips_the_workers_own_deadline(self,
                                                            degrade):
        """ROADMAP item 21 (b): the dispatcher's ``deadline`` frame can
        land a fraction of a millisecond before the worker's own
        deadline.  It must trip that deadline, so the pooled outcome is
        the in-process one (truncation under ``degrade``, else
        ``BudgetExceeded``), never a pulled cancel token."""
        from repro.errors import BudgetExceeded
        from repro.lifecycle.context import Truncation
        context = self._after_cancel_frame("deadline", degrade)
        assert not context.cancelled
        with pytest.raises(Truncation if degrade else BudgetExceeded):
            context.check()
        assert context.trip_info[0] == "deadline"

    def test_any_other_cancel_frame_pulls_the_token(self):
        context = self._after_cancel_frame("kill")
        assert context.cancelled and context.cancel_reason == "kill"


class TestPipes:
    def test_a_reaped_and_a_stopped_worker_leave_no_pipe_open(self):
        """A worker killed, reaped and respawned, then the respawn shut
        down with the server: both workers' stdin / stdout are closed,
        none is left for the garbage collector to warn about."""
        import gc
        import os
        import signal
        import warnings

        gc.collect()  # earlier tests' garbage warns outside the record
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            server = _server()
            pool = server.pool
            try:
                first = pool._slots[0].proc
                os.kill(first.pid, signal.SIGKILL)
                deadline = time.perf_counter() + 60.0
                while (pool._slots[0].proc is first
                       and time.perf_counter() < deadline):
                    time.sleep(0.01)
                assert pool._slots[0].proc is not first
                assert pool.wait_ready(timeout_s=60.0, workers=1)
                assert server.query("SELECT A FROM T WHERE A = 2").rows \
                    == [(2,)]
            finally:
                server.close()
            for thread in threading.enumerate():
                if thread.name.startswith("repro-pool-"):
                    thread.join(timeout=10.0)
            del first, pool, server
            gc.collect()
        leaks = [str(w.message) for w in caught
                 if issubclass(w.category, ResourceWarning)]
        assert not leaks


class TestIntrospection:
    def test_sys_workers_reflects_the_pool(self):
        server = _server()
        try:
            server.query("SELECT A FROM T")
            rows = server.query(
                "SELECT Worker, State, Statements FROM sys.workers"
            ).rows
            assert rows == [("w1", "idle", 1)]
        finally:
            server.close()

    def test_sys_workers_is_empty_without_a_pool(self):
        db = Database()
        server = Server(db)
        try:
            assert server.query("SELECT * FROM sys.workers").rows == []
        finally:
            server.close()

    def test_sys_queries_records_queue_wait_and_worker(self):
        server = _server()
        try:
            server.query("SELECT A FROM T")
            rows = server.query(
                "SELECT Worker, QueueMs FROM sys.queries"
            ).rows
            pooled = [r for r in rows if r[0] == "w1"]
            assert pooled
            assert all(wait >= 0.0 for _, wait in rows)
        finally:
            server.close()


class TestExplain:
    def test_execution_section_names_the_tier(self):
        server = _server()
        try:
            report = server.explain_json("SELECT A FROM T")
            assert report["execution"]["tier"] == "pool"
            pool = report["execution"]["pool"]
            assert pool["state"] == "running"
            assert pool["workers"] == 1
            assert validate_explain(report) == []
            # a sys.* read is not pool-routable, and says so
            report = server.explain_json(
                "SELECT Name FROM sys.relations")
            assert report["execution"]["tier"] == "inprocess"
            assert validate_explain(report) == []
        finally:
            server.close()

    def test_core_explain_defaults_to_inprocess(self):
        db = Database()
        db.execute("CREATE TABLE T (A : INT, B : INT)")
        report = db.explain_json("SELECT A FROM T")
        assert report["execution"] == {
            "tier": "inprocess", "worker": None, "pool": None,
        }
        assert validate_explain(report) == []


class TestShellCommands:
    def test_workers_requires_serving(self):
        shell = Shell()
        assert shell.feed(".workers") == [
            "error: not serving (use .serve on)"
        ]

    def test_workers_on_status_off(self):
        shell = Shell()
        shell.feed("CREATE TABLE T (A : INT, B : INT);")
        shell.feed("INSERT INTO T VALUES (1, 10), (2, 20);")
        assert shell.feed(".serve on")[0].startswith("serving on")
        try:
            assert shell.feed(".workers") == ["pool is off"]
            assert shell.feed(".workers on") == ["pool on: 2 worker(s)"]
            shell.feed("SELECT A FROM T;")
            status = shell.feed(".workers status")
            assert status[0].startswith("pool running: 2 worker(s)")
            assert any(line.strip().startswith("w1:")
                       for line in status)
            assert shell.feed(".workers off") == ["pool off"]
            assert shell.feed(".workers off") == ["pool is off"]
            assert shell.feed(".workers bogus") == [
                "usage: .workers [on | off | N | status]"
            ]
        finally:
            shell.feed(".serve off")

    def test_workers_n_sets_the_count(self):
        shell = Shell()
        shell.feed(".serve on")
        try:
            assert shell.feed(".workers 1") == ["pool on: 1 worker(s)"]
            assert shell.server.pool.summary()["workers"] == 1
        finally:
            shell.feed(".serve off")

    def test_queries_shows_wait_and_execution_site(self):
        shell = Shell()
        shell.feed("CREATE TABLE T (A : INT, B : INT);")
        shell.feed("INSERT INTO T VALUES (1, 10);")
        shell.feed(".serve on")
        try:
            shell.feed(".workers 1")
            shell.feed("SELECT A FROM T;")
            lines = shell.feed(".queries")
            assert any("@w1" in line for line in lines)
            assert all("wait" in line for line in lines)
        finally:
            shell.feed(".serve off")
