"""Server end-to-end: serving, explain v3, clients, CLI commands."""

import pytest

from repro import Database
from repro.core.explain import (EXPLAIN_SCHEMA_VERSION,
                                validate_explain)
from repro.errors import (CircuitOpen, ReproError,
                          RetryBudgetExceeded, ServerOverloaded)
from repro.server import (AdmissionLimits, CircuitBreaker, RetryPolicy,
                          Server, SessionSettings, classify_statement)
from repro.esql.parser import parse_script


def _server(**kwargs):
    db = Database()
    db.execute("TABLE T (A : NUMERIC, B : NUMERIC, PRIMARY KEY (A))")
    db.execute("INSERT INTO T VALUES (1, 10), (2, 20)")
    return Server(db, **kwargs)


class TestClassify:
    def test_select_is_read(self):
        (stmt,) = parse_script("SELECT A FROM T")
        assert classify_statement(stmt) == "read"

    def test_everything_else_is_write(self):
        for source in ("INSERT INTO T VALUES (3, 30)",
                       "DELETE FROM T WHERE A = 1",
                       "TABLE U (X : NUMERIC)"):
            (stmt,) = parse_script(source)
            assert classify_statement(stmt) == "write"


class TestServing:
    def test_query_through_server(self):
        server = _server()
        result = server.query("SELECT B FROM T WHERE A = 2")
        assert result.rows == [(20,)]
        assert server.stats()["requests"]["server.requests.read"] == 1

    def test_more_readers_than_slots_queue_and_none_is_shed(self):
        import threading
        server = _server(limits=AdmissionLimits(
            max_readers=4, max_queue=64, queue_timeout_ms=30000.0))
        answers = []

        def reader(slot):
            session = server.open_session(f"r{slot}")
            for __ in range(3):
                answers.append(server.query(
                    "SELECT B FROM T WHERE A = 2", session=session.id
                ).rows)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert answers == [[(20,)]] * 36
        stats = server.stats()
        assert stats["admission"]["shed_total"] == 0
        assert stats["requests"]["server.requests.read"] == 36
        server.close()

    def test_mixed_script_admits_per_statement(self):
        server = _server()
        results = server.execute("""
            INSERT INTO T VALUES (3, 30);
            SELECT B FROM T WHERE A = 3;
            DELETE FROM T WHERE A = 3;
        """)
        assert [r.rows for r in results] == [[(30,)]]
        counters = server.stats()["requests"]
        assert counters["server.requests.read"] == 1
        assert counters["server.requests.write"] == 2

    def test_writes_advance_snapshot_version(self):
        server = _server()
        before = server.stats()["snapshot_version"]
        server.execute("INSERT INTO T VALUES (4, 40)")
        server.query("SELECT A FROM T")  # reads do not bump it
        assert server.stats()["snapshot_version"] == before + 1

    def test_serving_off_has_no_guard(self):
        db = Database()
        assert db.guard is None
        db.execute("TABLE T (A : NUMERIC)")  # plain path still works

    def test_failed_write_rolls_back_and_version_holds(self):
        server = _server()
        before = server.guard.version
        with pytest.raises(ReproError):
            server.execute("INSERT INTO T VALUES (1, 10)")  # dup key
        assert server.guard.version == before
        assert server.query("SELECT A FROM T WHERE A = 1").rows == [(1,)]

    def test_session_isolation_via_server(self):
        server = _server()
        strict = server.open_session(
            "strict", SessionSettings(checked=True, deadline_ms=100.0))
        lax = server.open_session("lax")
        server.query("SELECT A FROM T", session=strict.id)
        server.query("SELECT A FROM T", session=lax.id)
        assert server.db.checked is False
        assert server.db.deadline_ms is None

    def test_error_history_records_typed_payloads(self):
        server = _server()
        session = server.open_session("s")
        with pytest.raises(ReproError):
            server.query("SELECT Nope FROM T", session=session.id)
        report = server.explain_json("SELECT A FROM T",
                                     session=session.id)
        errors = report["server"]["errors"]
        assert errors and errors[0]["error"]
        assert "message" in errors[0]


class TestExplainV3:
    def test_server_section_validates(self):
        server = _server()
        report = server.explain_json("SELECT B FROM T WHERE A = 1",
                                     execute=True)
        assert validate_explain(report) == []
        section = report["server"]
        assert section["request_class"] == "read"
        assert section["queue_wait_ms"] >= 0.0
        assert section["snapshot_version"] == server.guard.version
        assert section["shed_total"] == 0

    def test_unserved_explain_has_null_server_section(self):
        db = Database()
        db.execute("TABLE T (A : NUMERIC)")
        report = db.explain_json("SELECT A FROM T")
        assert report["server"] is None
        assert validate_explain(report) == []

    def test_shed_counter_lands_in_report(self):
        server = _server(limits=AdmissionLimits(
            max_readers=1, max_queue=0, queue_timeout_ms=5.0))
        with server.admission.admit("read"):
            with pytest.raises(ServerOverloaded):
                server.query("SELECT A FROM T")
        report = server.explain_json("SELECT A FROM T")
        assert report["server"]["shed_total"] >= 1
        assert validate_explain(report) == []

    def test_shed_error_payload_validates(self):
        server = _server(limits=AdmissionLimits(
            max_readers=1, max_queue=0, queue_timeout_ms=5.0))
        session = server.open_session("s")
        with server.admission.admit("read"):
            with pytest.raises(ServerOverloaded) as excinfo:
                server.query("SELECT A FROM T", session=session.id)
        assert excinfo.value.retry_after > 0
        report = server.explain_json("SELECT A FROM T",
                                     session=session.id)
        (payload,) = [e for e in report["server"]["errors"]
                      if e["error"] == "ServerOverloaded"]
        assert payload["retry_after"] > 0
        assert validate_explain(report) == []


class TestServingClient:
    def test_client_round_trip(self):
        server = _server()
        client = server.client()
        assert client.query("SELECT B FROM T WHERE A = 1").rows == [(10,)]
        client.execute("INSERT INTO T VALUES (5, 50)")
        assert client.query("SELECT B FROM T WHERE A = 5").rows == [(50,)]
        client.close()
        assert len(server.sessions) == 0

    def test_client_retries_past_transient_shed(self):
        server = _server(limits=AdmissionLimits(
            max_readers=1, max_queue=0, queue_timeout_ms=5.0))
        client = server.client(retry=RetryPolicy(
            max_attempts=5, base_delay_s=0.001, sleep=lambda _s: None))
        ticket_cm = server.admission.admit("read")
        ticket_cm.__enter__()

        calls = {"n": 0}
        original = server.query

        def query_then_free(source, session=None):
            calls["n"] += 1
            if calls["n"] == 2:
                ticket_cm.__exit__(None, None, None)  # slot frees up
            return original(source, session=session)

        server.query = query_then_free
        assert client.query("SELECT A FROM T WHERE A = 1").rows == [(1,)]
        assert client.retry.last_attempts >= 2

    def test_retry_budget_exhaustion_is_typed(self):
        server = _server(limits=AdmissionLimits(
            max_readers=1, max_queue=0, queue_timeout_ms=5.0))
        client = server.client(retry=RetryPolicy(
            max_attempts=3, base_delay_s=0.001, sleep=lambda _s: None))
        with server.admission.admit("read"):
            with pytest.raises(RetryBudgetExceeded) as excinfo:
                client.query("SELECT A FROM T")
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, ServerOverloaded)

    def test_breaker_opens_on_server_failures(self):
        """The breaker watches the *server's* stream: failures from any
        session open the circuit for this client's next call."""
        server = _server()
        client = server.client(
            retry=RetryPolicy(retry_on=(ServerOverloaded,)),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_s=60.0),
        )
        for _ in range(2):
            with pytest.raises(ReproError):
                server.query("SELECT 1 / 0 FROM T")
        with pytest.raises(CircuitOpen) as excinfo:
            client.query("SELECT A FROM T")
        assert excinfo.value.retry_after > 0

    def test_shedding_does_not_open_the_breaker(self):
        server = _server(limits=AdmissionLimits(
            max_readers=1, max_queue=0, queue_timeout_ms=5.0))
        client = server.client(retry=RetryPolicy(
            max_attempts=2, base_delay_s=0.001, sleep=lambda _s: None))
        with server.admission.admit("read"):
            with pytest.raises(RetryBudgetExceeded):
                client.query("SELECT A FROM T")
        assert client.breaker.state("ServerOverloaded") == "closed"


class TestCLI:
    def _shell(self):
        from repro.cli import Shell
        shell = Shell()
        list(shell.run([
            "TABLE T (A : NUMERIC, B : NUMERIC);",
            "INSERT INTO T VALUES (1, 10), (2, 20);",
        ]))
        return shell

    def _run(self, shell, text):
        return list(shell.run(text.strip().splitlines()))

    def test_serve_on_off(self):
        shell = self._shell()
        out = self._run(shell, ".serve on")
        assert shell.serving
        assert any("serving" in line for line in out)
        (row,) = self._run(shell, "SELECT B FROM T WHERE A = 1;")
        assert "(1 row)" in row
        self._run(shell, ".serve off")
        assert not shell.serving

    def test_serve_status_reports_admission(self):
        shell = self._shell()
        self._run(shell, ".serve on")
        self._run(shell, "SELECT A FROM T;")
        out = self._run(shell, ".serve")
        joined = "\n".join(out)
        assert "session" in joined
        assert "admitted" in joined

    def test_sessions_new_use_close(self):
        shell = self._shell()
        self._run(shell, ".serve on")
        self._run(shell, ".sessions new other")
        assert shell.session.id == "other"
        self._run(shell, ".checked on")
        assert shell.settings.checked is True
        self._run(shell, ".sessions use s1")
        assert shell.session.id == "s1"
        # settings follow the session, so the toggle stayed behind
        assert shell.settings.checked is not True
        self._run(shell, ".sessions close other")
        out = self._run(shell, ".sessions")
        assert not any("other" in line for line in out)

    def test_shed_shows_and_tunes_limits(self):
        shell = self._shell()
        self._run(shell, ".serve on")
        self._run(shell, ".shed readers 2")
        self._run(shell, ".shed queue 4")
        out = self._run(shell, ".shed")
        joined = "\n".join(out)
        assert "2 reader(s)" in joined
        assert shell.server.admission.limits.max_readers == 2
        assert shell.server.admission.limits.max_queue == 4

    def test_server_commands_require_serving(self):
        shell = self._shell()
        for command in (".sessions", ".shed"):
            (out,) = self._run(shell, command)
            assert out.startswith("error:")

    def test_open_restarts_serving(self, tmp_path):
        shell = self._shell()
        self._run(shell, ".serve on")
        out = self._run(shell, f".open {tmp_path / 'other.db'}")
        assert shell.serving
        (row,) = self._run(shell,
                           "TABLE U (X : NUMERIC); "
                           "INSERT INTO U VALUES (7, 7);")
        self._run(shell, "SELECT X FROM U;")


class TestSlowQueryLog:
    def test_threshold_zero_captures_everything(self):
        server = _server(slow_query_ms=0.0)
        server.query("SELECT A FROM T")
        server.execute("INSERT INTO T VALUES (3, 30)")
        read, write = server.slow_queries()
        assert read["request_class"] == "read"
        assert read["source"] == "SELECT A FROM T"
        assert read["duration_ms"] >= 0.0
        assert len(read["trace_id"]) == 32
        # reads carry the full, schema-valid EXPLAIN report
        assert read["explain"]["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert validate_explain(read["explain"]) == []
        # writes are recorded source-only (no re-execution to explain)
        assert write["request_class"] == "write"
        assert write["explain"] is None
        assert server.metrics.value("server.slow_queries") == 2

    def test_no_threshold_means_no_capture(self):
        server = _server()
        server.query("SELECT A FROM T")
        assert server.slow_queries() == []
        assert server.metrics.value("server.slow_queries") == 0

    def test_ring_is_bounded(self):
        server = _server(slow_query_ms=0.0, slow_query_capacity=2)
        for __ in range(5):
            server.query("SELECT A FROM T")
        entries = server.slow_queries()
        assert len(entries) == 2               # oldest entries evicted
        assert all(e["request_class"] == "read" for e in entries)


class TestMetricsTextAndTop:
    def test_metrics_text_exposes_request_families(self):
        server = _server()
        server.query("SELECT A FROM T")
        text = server.metrics_text()
        assert "# TYPE server_requests_read counter" in text
        assert "server_requests_read 1" in text
        assert "# TYPE server_request_read_seconds histogram" in text
        assert 'server_request_read_seconds_bucket{le="+Inf"} 1' in text

    def test_top_frame_shape(self):
        server = _server(slow_query_ms=0.0)
        server.query("SELECT A FROM T")
        server.execute("INSERT INTO T VALUES (4, 40)")
        frame = server.top()
        assert frame["qps"] > 0.0
        assert frame["requests"]["read"]["count"] == 1
        assert frame["requests"]["write"]["count"] == 1
        assert frame["requests"]["read"]["p99_ms"] >= 0.0
        assert frame["shed_total"] == 0
        assert frame["queue_depth"] == 0
        assert frame["sessions"] >= 1
        # the dashboard tail omits the bulky EXPLAIN payloads
        assert frame["slow_queries"]
        assert all("explain" not in entry
                   for entry in frame["slow_queries"])

    def test_top_rule_heat_reads_the_ledger(self):
        # heat comes from the database's rewrite-provenance ledger via
        # sys.rule_heat -- no telemetry collector required, but a rule
        # must actually have *fired* (an already-canonical query
        # contributes nothing)
        server = _server()
        server.query("SELECT A FROM T WHERE B = 10")
        assert server.top()["rule_heat"] == []
        server.query(
            "SELECT T.A FROM T WHERE EXISTS "
            "(SELECT A FROM T WHERE B = 10)"
        )
        heat = server.top()["rule_heat"]
        assert heat
        for row in heat:
            assert row["fired"] >= 1
            assert set(row) == {"block", "rule", "fired",
                                "complexity_delta"}


class TestCLITop:
    def _shell(self):
        from repro.cli import Shell
        shell = Shell()
        list(shell.run([
            "TABLE T (A : NUMERIC, B : NUMERIC);",
            "INSERT INTO T VALUES (1, 10), (2, 20);",
        ]))
        return shell

    def test_top_renders_one_dashboard_frame(self):
        shell = self._shell()
        list(shell.run([".serve on"]))
        list(shell.run(["SELECT A FROM T;",
                        "INSERT INTO T VALUES (3, 30);"]))
        out = list(shell.run([".top"]))
        joined = "\n".join(out)
        assert "req/s" in joined
        assert "read" in joined
        assert "write" in joined
        assert "p95" in joined

    def test_top_requires_serving(self):
        (out,) = list(self._shell().run([".top"]))
        assert out.startswith("error:")
