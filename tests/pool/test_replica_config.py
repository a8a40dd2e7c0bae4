"""Pool replicas run the parent's configuration.

The boot frame carries every engine-level setting of the parent, and
each ``execute`` frame carries the parent's *resolved* statement
options plus its rule quarantine -- so a statement does the same work
pooled as in-process, whatever the parent was configured with.
"""

import io

from repro.engine.database import Database
from repro.pool import supervisor as supervisor_mod
from repro.pool.protocol import send_frame
from repro.pool.worker import _Worker
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
        flags = dict(rewrite=False, semi_naive=False, hash_joins=True,
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
        assert sorted(replica.query("SELECT A FROM K").rows) \
            == [(1,), (2,), (3,), (4,)]

    def test_checked_database_reaches_the_worker_as_checked(self):
        worker = _Worker(io.BytesIO(), io.BytesIO())
        worker.db = _database()  # the replica's own default: unchecked
        seen = []
        optimize = worker.db.optimizer.optimize

        def spy(term, **kwargs):
            seen.append(kwargs.get("checked"))
            return optimize(term, **kwargs)

        worker.db.optimizer.optimize = spy
        parent = _database(checked=True)
        options = SessionSettings().resolved(parent)
        worker._run_statement({"source": OR_CHAIN,
                               "options": dict(vars(options))})
        assert seen == [True]


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
