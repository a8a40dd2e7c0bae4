"""The acceptance scenario: a runaway statement is visible in
``sys.queries`` from another session and killed -- by ``Server.kill``
or the watchdog -- within one cooperative check interval; mid-flight
aborts leave a durable database fsck-clean with a gap-free WAL and a
released writer lock."""

import io
import os
import threading
import time

import pytest

from repro import Database
from repro.durability.wal import scan_wal
from repro.errors import BudgetExceeded, QueryCancelled
from repro.pool.protocol import recv_frame, send_frame
from repro.pool.worker import _Worker
from repro.server import Server

from tests.resilience.chaos import SALE_QUERY, StallingRule, sale_db

# generous bound for "the victim thread died after the kill": actual
# latency is one cooperative check interval (64 ticks) of pure-python
# evaluation, i.e. well under a millisecond
_JOIN_TIMEOUT_S = 30.0


def _wait_for_phase(registry, phase, deadline_s=10.0):
    """Poll until some active statement reaches ``phase``."""
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        for context in registry.active():
            if context.phase == phase:
                return context
        time.sleep(0.002)
    raise AssertionError(f"no active statement reached {phase!r}")


def _runaway_server(**server_kwargs):
    db = Database()
    db.execute("TABLE BIG (Id : NUMERIC, V : NUMERIC, PRIMARY KEY (Id))")
    values = ", ".join(f"({i}, {i * 7})" for i in range(200))
    db.execute(f"INSERT INTO BIG VALUES {values}")
    return Server(db, **server_kwargs)


# an unindexed triple cross product: ~8M probe ticks, far longer than
# the test will wait, so it only ever finishes by being killed
_RUNAWAY = ("SELECT B1.Id FROM BIG B1, BIG B2, BIG B3 "
            "WHERE B1.V + B2.V + B3.V < -1")


class TestKillRunaway:
    def test_visible_and_killed_from_another_session(self):
        server = _runaway_server()
        try:
            victim = server.open_session("victim")
            observer = server.open_session("observer")
            outcome = {}

            def run():
                try:
                    victim.query(_RUNAWAY)
                    outcome["result"] = "completed"
                except QueryCancelled as error:
                    outcome["error"] = error

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            runaway = _wait_for_phase(server.db.lifecycle, "evaluate")

            # visible from the observer session, attributed to victim
            rows = observer.query(
                "SELECT QueryId, Session, Phase FROM sys.queries"
            ).rows
            live = {qid: (sess, phase) for qid, sess, phase in rows}
            assert live[runaway.query_id] == ("victim", "evaluate")

            assert server.kill(runaway.query_id) is True
            thread.join(timeout=_JOIN_TIMEOUT_S)
            assert not thread.is_alive(), "kill did not stop the victim"
            error = outcome["error"]
            assert error.query_id == runaway.query_id
            assert error.reason == "kill"

            # retired as cancelled, visible in the done ring
            recent = {c.query_id: c.phase
                      for c in server.db.lifecycle.recent()}
            assert recent[runaway.query_id] == "cancelled"
            assert server.metrics.snapshot()["counters"][
                "lifecycle.cancels.kill"] == 1
        finally:
            server.close()

    def test_watchdog_reaps_stuck_statement(self):
        # a registered statement whose thread never reaches a
        # cooperative check (stuck in a lock wait, say) is the
        # watchdog's case: the background sweep pulls its token
        server = _runaway_server()
        try:
            stuck = server.db.lifecycle.begin(
                session="stuck", timeout_ms=10.0, source="SELECT ..."
            )
            deadline = time.time() + 10.0
            while not stuck.cancelled and time.time() < deadline:
                time.sleep(0.005)
            assert stuck.cancelled
            assert stuck.cancel_reason == "watchdog"
            assert server.watchdog.reaped_total >= 1
            server.db.lifecycle.finish(stuck, "cancelled")
        finally:
            server.close()

    def test_deadline_self_trips_during_evaluation(self):
        # the evaluating thread reaches its own deadline at a
        # cooperative check and trips BudgetExceeded.  The watchdog
        # would cancel the same statement if its sweep came first (the
        # test above); its interval here is one it cannot win with
        server = _runaway_server(watchdog_interval_s=3600.0)
        try:
            with pytest.raises(BudgetExceeded) as err:
                server.db.query(_RUNAWAY, timeout_ms=50.0)
            assert err.value.resource == "deadline"
        finally:
            server.close()

    def test_cancel_during_recursive_fixpoint(self):
        # a semi-naive fixpoint observes cancellation between
        # iterations: inject a deterministic mid-evaluation cancel
        # (the chaos path) and assert it lands inside the fixpoint
        from repro.lifecycle import ChaosInjector

        db = Database()
        db.govern_statements = True
        db.execute("TABLE EDGE (Src : NUMERIC, Dst : NUMERIC)")
        values = ", ".join(f"({i}, {i + 1})" for i in range(300))
        db.execute(f"INSERT INTO EDGE VALUES {values}")
        db.execute("""
            CREATE VIEW REACH (Src, Dst) AS (
                SELECT Src, Dst FROM EDGE
                UNION
                SELECT R.Src, E.Dst FROM REACH R, EDGE E
                WHERE R.Dst = E.Src
            )
        """)
        db.chaos = ChaosInjector(seed=7, cancel_rate=1.0, min_checks=20)
        with pytest.raises(QueryCancelled) as err:
            # the full transitive closure: ~45k derived pairs, hundreds
            # of cooperative checks inside the fixpoint
            db.query("SELECT Src, Dst FROM REACH")
        assert err.value.reason == "chaos"
        assert err.value.phase == "evaluate"
        # the registry retired it as cancelled; the database still works
        db.chaos = None
        recent = db.lifecycle.recent()[-1]
        assert recent.phase == "cancelled"
        assert len(db.query("SELECT Src FROM EDGE WHERE Src = 0").rows) \
            == 1


def _stalling_db():
    """Every block scan of SALE_QUERY's rewrite stalls 20 ms per
    position and fires nothing new: seconds of ``phase=optimize``."""
    db = sale_db()
    db.govern_statements = True
    rewriter = db.optimizer.rewriter
    for block in rewriter.seq.blocks:
        rewriter.add_rule(StallingRule(), block.name)
    return db


class TestKillDuringRewrite:
    """The rewrite polls its statement's cancel token before each block
    and each application search, so a kill is seen in the optimize
    phase and the statement never reaches the evaluator."""

    def test_db_kill_lands_in_the_optimize_phase(self):
        db = _stalling_db()
        outcome = {}

        def run():
            try:
                outcome["rows"] = db.query(SALE_QUERY).rows
            except QueryCancelled as error:
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        victim = _wait_for_phase(db.lifecycle, "optimize")
        # the token Server.kill, Ctrl-C and the watchdog's
        # reap_overdue all pull
        assert db.kill(victim.query_id) is True
        thread.join(timeout=_JOIN_TIMEOUT_S)
        assert not thread.is_alive(), "kill did not stop the rewrite"
        error = outcome["error"]
        assert error.phase == "optimize"
        assert error.query_id == victim.query_id
        assert victim.rows_charged == 0  # no evaluator ever ran
        assert db.lifecycle.recent()[-1].phase == "cancelled"

    def test_cancel_frame_unwinds_a_worker_mid_rewrite(self):
        # no SIGKILL escalation needed: the reader thread pulls the
        # replica's token and the statement answers with a typed error
        read_end, write_end = os.pipe()
        stdin, feeder = os.fdopen(read_end, "rb"), os.fdopen(write_end, "wb")
        stdout = io.BytesIO()
        worker = _Worker(stdin, stdout)
        worker.db = _stalling_db()
        reader = threading.Thread(target=worker.reader, daemon=True)
        reader.start()
        statement = threading.Thread(
            target=worker.execute,
            args=({"type": "execute", "id": 1, "source": SALE_QUERY},),
            daemon=True,
        )
        statement.start()
        try:
            _wait_for_phase(worker.db.lifecycle, "optimize")
            send_frame(feeder, {"type": "cancel", "reason": "kill"})
            statement.join(timeout=_JOIN_TIMEOUT_S)
            assert not statement.is_alive(), "the worker did not unwind"
        finally:
            feeder.close()  # EOF ends the reader thread
            reader.join(timeout=_JOIN_TIMEOUT_S)
            stdin.close()
        assert not reader.is_alive()
        stdout.seek(0)
        reply = recv_frame(stdout)
        assert reply["type"] == "error" and reply["id"] == 1
        payload = reply["payload"]
        assert payload["error"] == "QueryCancelled"
        assert payload["phase"] == "optimize"
        assert worker.db.lifecycle.recent()[-1].rows_charged == 0


class TestAbortLeavesDatabaseClean:
    def _durable(self, path):
        db = Database(path=path)
        db.execute("TABLE INV (Id : NUMERIC, Qty : NUMERIC, "
                   "PRIMARY KEY (Id))")
        values = ", ".join(f"({i}, {i * 3})" for i in range(50))
        db.execute(f"INSERT INTO INV VALUES {values}")
        return db

    def _assert_clean(self, db, path):
        assert db.fsck().violations == []
        scan = scan_wal(db.durability.wal.path)
        lsns = [record["lsn"] for record in scan.records]
        assert lsns == list(range(1, len(lsns) + 1))
        # the committed image survives a crash-recovery reopen
        db.close()
        recovered = Database(path=path)
        assert recovered.fsck().violations == []
        rows = recovered.query("SELECT Id, Qty FROM INV").rows
        assert sorted(rows) == [(i, i * 3) for i in range(50)]
        recovered.close()

    def test_budget_abort_mid_update(self, tmp_path):
        path = tmp_path / "abort.db"
        db = self._durable(path)
        with pytest.raises(BudgetExceeded):
            db.execute("UPDATE INV SET Qty = Qty + 1 WHERE Id >= 0",
                       row_budget=10)
        self._assert_clean(db, path)

    def test_cancel_abort_mid_delete_releases_writer_lock(self, tmp_path):
        path = tmp_path / "kill.db"
        db = self._durable(path)
        server = Server(db)
        try:
            session = server.open_session("writer")
            outcome = {}

            def run():
                try:
                    # the predicate scan ticks: a mid-flight kill
                    # aborts the statement under the writer lock
                    session.execute("DELETE FROM INV WHERE Id >= 0")
                    outcome["result"] = "completed"
                except QueryCancelled as error:
                    outcome["error"] = error

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            deadline = time.time() + 10.0
            killed = False
            while time.time() < deadline and thread.is_alive():
                for context in server.db.lifecycle.active():
                    if context.session == "writer":
                        context.cancel("kill")
                        killed = True
                if killed:
                    break
                time.sleep(0.001)
            thread.join(timeout=_JOIN_TIMEOUT_S)
            assert not thread.is_alive()
            if "error" in outcome:
                # the abort path: lock released, nothing partial
                with server.guard.write():
                    pass
                rows = db.query("SELECT Id FROM INV").rows
                assert len(rows) == 50
            else:
                # the DELETE won the race and committed whole
                assert outcome["result"] == "completed"
                assert len(db.query("SELECT Id FROM INV").rows) == 0
                db.execute("INSERT INTO INV VALUES " + ", ".join(
                    f"({i}, {i * 3})" for i in range(50)))
        finally:
            server.close()
        self._assert_clean(db, path)
