"""Pool replicas run the parent's configuration.

The boot frame carries every engine-level setting of the parent, and
each ``execute`` frame carries the parent's *resolved* statement
options plus its rule quarantine -- so a statement does the same work
pooled as in-process, whatever the parent was configured with.
"""

import io

import pytest

from repro.engine.database import Database
from repro.errors import BudgetExceeded
from repro.pool import supervisor as supervisor_mod
from repro.pool.protocol import send_frame
from repro.pool.supervisor import Supervisor, _Pending, _Slot
from repro.pool.worker import _Worker
from repro.resilience.checked import CheckedValidator
from repro.rules.rule import rule_from_text
from repro.server import Server, SessionSettings

OR_CHAIN = "SELECT A FROM K WHERE A = 1 OR A = 2 OR A = 3"
FIRINGS = 10  # sys.statements column


def _database(**flags):
    db = Database(**flags)
    db.execute("TABLE K (A : NUMERIC, B : NUMERIC)")
    db.execute("INSERT INTO K VALUES (1, 1), (2, 2), (3, 3), (4, 4)")
    return db


def _server(**flags):
    server = Server(_database(**flags), workers=1)
    assert server.pool.wait_ready(timeout_s=60.0, workers=1)
    return server


def _firings(db, source=OR_CHAIN):
    """Total ``RuleFirings`` recorded for ``source``'s fingerprint."""
    from repro.esql.fingerprint import fingerprint_source
    fp = fingerprint_source(source).fingerprint
    return sum(row[FIRINGS] for row in db.workload.rows() if row[0] == fp)


def _pooled(server, source=OR_CHAIN, session=None):
    before = server.pool.dispatched
    rows = server.query(source, session=session).rows
    assert server.pool.dispatched == before + 1  # not a fallback
    return rows


class TestEngineSettingsReachTheReplica:
    def test_antipattern_block_fires_pooled_as_in_process(self):
        local = _database(antipattern=True)
        assert sorted(local.query(OR_CHAIN).rows) == [(1,), (2,), (3,)]
        expected = _firings(local)
        assert expected == 2  # ap_or_to_in, ap_in_extend
        server = _server(antipattern=True)
        try:
            assert sorted(_pooled(server)) == [(1,), (2,), (3,)]
            assert _firings(server.db) == expected
        finally:
            server.close()

    def test_boot_frame_builds_the_same_engine(self, monkeypatch):
        frames = []
        original = supervisor_mod.send_frame

        def recording(stream, message):
            frames.append(message)
            return original(stream, message)

        monkeypatch.setattr(supervisor_mod, "send_frame", recording)
        flags = dict(rewrite=False, semi_naive=False, hash_joins=False,
                     dynamic_limits=True, antipattern=True, checked=True,
                     deadline_ms=5000.0, resilient=True)
        server = _server(**flags)
        try:
            (boot,) = [f for f in frames if f["type"] == "boot"]
        finally:
            server.close()
        # what the worker process does with that frame, in-process
        stdin = io.BytesIO()
        send_frame(stdin, boot)
        stdin.seek(0)
        worker = _Worker(stdin, io.BytesIO())
        worker.boot()
        replica, parent = worker.db, server.db
        for attribute in ("rewrite_default", "semantic_limit", "semi_naive",
                          "hash_joins", "dynamic_limits", "antipattern",
                          "checked", "deadline_ms", "resilient"):
            assert getattr(replica, attribute) == getattr(parent, attribute)
        assert replica.checked is True and replica.antipattern is True
        assert replica.hash_joins is False  # not the replica's default
        assert sorted(replica.query("SELECT A FROM K").rows) \
            == [(1,), (2,), (3,), (4,)]

    def test_checked_database_reaches_the_worker_as_checked(self):
        worker = _Worker(io.BytesIO(), io.BytesIO())
        worker.db = _database()  # the replica's own default: unchecked
        seen = []
        optimize = worker.db.optimizer.optimize

        def spy(term, **kwargs):
            seen.append(kwargs["resilience"].validator)
            return optimize(term, **kwargs)

        worker.db.optimizer.optimize = spy
        parent = _database(checked=True)
        options = SessionSettings().resolved(parent)
        worker._run_statement({"source": OR_CHAIN,
                               "options": dict(vars(options))})
        (validator,) = seen
        assert isinstance(validator, CheckedValidator)


class TestQuarantineReachesTheReplica:
    def test_benched_rule_fires_on_neither_tier_until_lifted(self):
        server = _server(antipattern=True)
        db = server.db
        try:
            db.quarantine.note("antipattern", "ap_or_to_in",
                               "benched by the operator", source="manual")
            assert sorted(db.query(OR_CHAIN).rows) == [(1,), (2,), (3,)]
            assert _firings(db) == 0          # in-process
            assert sorted(_pooled(server)) == [(1,), (2,), (3,)]
            assert _firings(db) == 0          # pooled
            assert db.quarantine.lift("ap_or_to_in")
            _pooled(server)                   # honoured on the next frame
            assert _firings(db) == 2
        finally:
            server.close()


class TestReplicaBenchingsReachTheParent:
    """A rule a replica benches (checked-mode blame here; a crash past
    the sandbox threshold takes the same road) is benched on the
    parent, and so on every tier."""

    QUERY = "SELECT A FROM K WHERE A > 2"

    def _checked_replica(self):
        """A worker whose checked replica holds the planted
        result-changing rule of tests/qa/test_quarantine.py."""
        worker = _Worker(io.BytesIO(), io.BytesIO())
        worker.db = replica = _database(checked=True)
        replica.optimizer.rewriter.add_rule(
            rule_from_text("bad_flip: x > y / --> x >= y /"),
            block="simplify")
        return worker

    def _frame(self, parent):
        options = SessionSettings().resolved(parent)
        return {"source": self.QUERY, "options": dict(vars(options)),
                "quarantine": sorted(parent.quarantine.rules())}

    def test_blame_rides_home_and_lands_in_the_parents_registry(self):
        worker = self._checked_replica()
        parent = _database(checked=True)
        pool = Supervisor(parent)

        def settle(reply):
            pending = _Pending()
            pending.reply = reply
            return pool._settle(_Slot("w1"), pending, 0, None, self.QUERY)

        reply = worker._run_statement(self._frame(parent))
        # the block was rolled back: >= 2 would have answered 2 as well
        assert sorted(reply["rows"]) == [[3], [4]]
        (entry,) = reply["quarantine"]
        assert (entry["rule"], entry["block"], entry["source"]) \
            == ("bad_flip", "simplify", "checked")
        # a frame built before the parent heard of it lifts nothing
        again = worker._run_statement(self._frame(parent))
        assert "bad_flip" in worker.db.quarantine
        assert [e["rule"] for e in again["quarantine"]] == ["bad_flip"]
        # the supervisor folds the reply: the parent's bench has the row
        assert sorted(settle(reply).rows) == [(3,), (4,)]
        assert parent.query(
            "SELECT Rule, Block, Source FROM sys.quarantine"
        ).rows == [("bad_flip", "simplify", "checked")]
        # the parent lists it now: nothing left to report
        assert "quarantine" not in worker._run_statement(
            self._frame(parent))
        # a parent-side lift is honoured on the next frame ...
        assert parent.quarantine.lift("bad_flip")
        reply = worker._run_statement(self._frame(parent))
        # ... so the rule fired, diverged and was benched again
        assert [e["rule"] for e in reply["quarantine"]] == ["bad_flip"]
        settle(reply)
        assert "bad_flip" in parent.quarantine

    def test_an_error_reply_still_carries_the_verdict_next_time(self):
        worker = self._checked_replica()
        parent = _database(checked=True)
        frame = self._frame(parent)
        frame["options"]["row_budget"] = 1  # blames, then trips
        with pytest.raises(BudgetExceeded):
            worker._run_statement(frame)
        reply = worker._run_statement(self._frame(parent))
        assert [e["rule"] for e in reply["quarantine"]] == ["bad_flip"]


class TestFallbackKeepsTheOptions:
    def test_analyze_session_falling_back_still_logs_its_plan(self):
        server = _server()
        db = server.db
        try:
            sess = server.open_session(
                settings=SessionSettings(analyze=True)
            )
            server.pool.stop()  # every submit: PoolUnavailable
            rows = server.query(OR_CHAIN, session=sess.id).rows
            assert sorted(rows) == [(1,), (2,), (3,)]
            counters = server.metrics.snapshot()["counters"]
            assert counters.get("pool.fallbacks", 0) == 1
            assert db.plan_log.recorded == 1
            assert db.query("SELECT Operator FROM sys.plan_nodes").rows
        finally:
            server.close()
