"""Shell tests (the CLI driver, exercised without a terminal)."""

import pytest

from repro.cli import Shell


def run(shell, text):
    return list(shell.run(text.strip().splitlines()))


@pytest.fixture
def shell():
    s = Shell()
    run(s, """
    TABLE EDGE (Src : NUMERIC, Dst : NUMERIC, PRIMARY KEY (Src, Dst));
    INSERT INTO EDGE VALUES (1, 2), (2, 3);
    """)
    return s


class TestStatements:
    def test_ddl_acknowledged(self):
        shell = Shell()
        out = run(shell, "TABLE T (A : INT);")
        assert out == ["ok"]

    def test_query_renders_table(self, shell):
        (out,) = run(shell, "SELECT Dst FROM EDGE WHERE Src = 1;")
        assert "Dst" in out
        assert "(1 row)" in out

    def test_multiline_statement(self, shell):
        out = run(shell, "SELECT Dst\nFROM EDGE\nWHERE Src = 2;")
        assert "(1 row)" in out[0]

    def test_missing_semicolon_executes_at_eof(self, shell):
        out = run(shell, "SELECT Dst FROM EDGE WHERE Src = 1")
        assert "(1 row)" in out[0]

    def test_comment_before_select_still_prints_rows(self, shell):
        # regression: the shell sniffed a SELECT prefix, so a leading
        # comment made it print "ok" and drop the rows; the engine's
        # ast.is_query now decides what comes back
        (out,) = run(shell, "-- note\nSELECT Dst FROM EDGE WHERE Src = 1;")
        assert "Dst" in out and "(1 row)" in out

    def test_mixed_line_prints_the_query_result(self, shell):
        (out,) = run(shell, "INSERT INTO EDGE VALUES (3, 4); "
                            "SELECT Dst FROM EDGE WHERE Src = 3;")
        assert "(1 row)" in out

    def test_error_reported_not_raised(self, shell):
        (out,) = run(shell, "SELECT Nope FROM EDGE;")
        assert out.startswith("error:")

    def test_parse_error_reported(self, shell):
        (out,) = run(shell, "SELEKT;")
        assert out.startswith("error:")


class TestDotCommands:
    def test_schema_lists_tables_and_keys(self, shell):
        out = run(shell, ".schema")
        assert any("table EDGE" in line for line in out)
        assert any("key" in line for line in out)

    def test_schema_lists_views(self, shell):
        run(shell, "CREATE VIEW V (S) AS SELECT Src FROM EDGE;")
        out = run(shell, ".schema")
        assert any(line.startswith("view V") for line in out)

    def test_rules_inventory(self, shell):
        out = run(shell, ".rules")
        assert any("search_merge" in line for line in out)

    def test_explain(self, shell):
        out = run(shell, ".explain SELECT Dst FROM EDGE WHERE Src = 1")
        assert "plan before rewriting" in out[0]

    def test_stats(self, shell):
        out = run(shell, ".stats SELECT Dst FROM EDGE WHERE Src = 1")
        assert any("tuples_scanned" in line for line in out)

    def test_rewrite_toggle(self, shell):
        assert run(shell, ".rewrite off") == ["rewriting off"]
        assert run(shell, ".rewrite") == ["rewriting is off"]
        assert run(shell, ".rewrite on") == ["rewriting on"]

    def test_unknown_command(self, shell):
        (out,) = run(shell, ".warp")
        assert "unknown command" in out

    def test_help(self, shell):
        (out,) = run(shell, ".help")
        assert ".explain" in out

    def test_quit_raises_system_exit(self, shell):
        with pytest.raises(SystemExit):
            run(shell, ".quit")


class TestResultTable:
    def test_to_table_alignment(self, shell):
        result = shell.db.query("SELECT Src, Dst FROM EDGE")
        table = result.to_table()
        lines = table.splitlines()
        assert lines[0].startswith("Src")
        assert set(lines[1]) <= {"-", "+"}
        assert "(2 rows)" in lines[-1]

    def test_to_table_truncation(self, shell):
        for i in range(3, 60):
            shell.db.execute(f"INSERT INTO EDGE VALUES ({i}, {i + 1})")
        table = shell.db.query("SELECT Src FROM EDGE").to_table(
            max_rows=5
        )
        assert "more)" in table


class TestScriptMode:
    def test_main_with_file(self, tmp_path, capsys):
        from repro.cli import main
        script = tmp_path / "s.esql"
        script.write_text(
            "TABLE T (A : INT);\n"
            "INSERT INTO T VALUES (1), (2);\n"
            "SELECT A FROM T WHERE A = 2;\n"
        )
        assert main([str(script)]) == 0
        captured = capsys.readouterr().out
        assert "ok" in captured and "(1 row)" in captured


class TestLoadCommand:
    def test_load_runs_script(self, shell, tmp_path):
        script = tmp_path / "more.esql"
        script.write_text("INSERT INTO EDGE VALUES (9, 10);\n"
                          "SELECT Dst FROM EDGE WHERE Src = 9;\n")
        out = run(shell, f".load {script}")
        assert out[0] == "ok"
        assert "(1 row)" in out[1]

    def test_load_missing_file(self, shell):
        (out,) = run(shell, ".load /nope/missing.esql")
        assert out.startswith("error:")

    def test_load_without_argument(self, shell):
        (out,) = run(shell, ".load")
        assert out.startswith("usage:")


class TestEngineCommand:
    def test_engine_toggle(self, shell):
        assert run(shell, ".engine") == ["join strategy: hash"]
        assert run(shell, ".engine nested") == ["join strategy: nested"]
        assert shell.db.hash_joins is False
        assert run(shell, ".engine") == ["join strategy: nested"]
        assert run(shell, ".engine hash") == ["join strategy: hash"]

    def test_queries_respect_engine_choice(self, shell):
        run(shell, ".engine nested")
        out = run(shell, "SELECT Dst FROM EDGE WHERE Src = 1;")
        assert "(1 row)" in out[0]


class TestResilienceCommands:
    def test_checked_toggle(self, shell):
        assert run(shell, ".checked") == ["checked mode is off"]
        assert run(shell, ".checked on") == ["checked mode on"]
        assert shell.settings.checked is True
        assert run(shell, ".checked off") == ["checked mode off"]
        assert shell.settings.checked is False

    def test_checked_never_mutates_shared_database(self, shell):
        # the settings-leakage fix: the toggle is session state, so a
        # second caller of the same Database keeps its own defaults
        run(shell, ".checked on")
        run(shell, ".deadline 5")
        assert shell.db.checked is False
        assert shell.db.deadline_ms is None

    def test_checked_queries_still_answer(self, shell):
        run(shell, ".checked on")
        out = run(shell, "SELECT Dst FROM EDGE WHERE Src = 1;")
        assert "(1 row)" in out[0]

    def test_deadline_set_show_clear(self, shell):
        assert run(shell, ".deadline") == ["no deadline"]
        assert run(shell, ".deadline 5") == ["deadline 5 ms"]
        assert shell.settings.deadline_ms == 5.0
        assert run(shell, ".deadline") == ["deadline is 5 ms"]
        assert run(shell, ".deadline off") == ["deadline off"]
        assert shell.settings.deadline_ms is None

    def test_deadline_rejects_garbage(self, shell):
        (out,) = run(shell, ".deadline soon")
        assert out.startswith("usage:")
        (out,) = run(shell, ".deadline -3")
        assert out.startswith("usage:")
        assert shell.settings.deadline_ms is None

    def test_stats_reports_degradation(self, shell):
        run(shell, ".deadline 1e-9")
        out = run(shell, ".stats SELECT Dst FROM EDGE WHERE Src = 1")
        assert any("degraded: best-so-far plan" in line for line in out)
        # degraded, not broken: the result table is still there
        assert "(1 row)" in out[0]


class TestBudgetCommand:
    def test_rows_memory_show_off(self, shell):
        assert run(shell, ".budget") == ["no budgets"]
        assert run(shell, ".budget rows 1") == ["row budget 1"]
        assert run(shell, ".budget memory 4096") == \
            ["memory budget 4096 bytes"]
        assert (shell.settings.row_budget,
                shell.settings.memory_budget) == (1, 4096)
        assert run(shell, ".budget") == ["rows 1, memory 4096 bytes"]
        # session state, like .checked: the shared database is untouched
        assert shell.db.row_budget is None
        assert run(shell, ".budget off") == ["budgets off"]
        assert (shell.settings.row_budget,
                shell.settings.memory_budget) == (None, None)

    def test_the_budget_governs_the_next_statement(self, shell):
        run(shell, ".budget rows 1")
        (out,) = run(shell, "SELECT Dst FROM EDGE;")
        assert out.startswith("error:") and "row" in out
        run(shell, ".degrade on")
        out = run(shell, "SELECT Dst FROM EDGE;")
        assert "(1 row)" in out[0]  # a truncated prefix, not an error

    def test_bad_input(self, shell):
        usage = ["usage: .budget [rows N | memory BYTES | off]"]
        assert run(shell, ".budget rows") == usage
        assert run(shell, ".budget cpu 3") == usage
        assert run(shell, ".budget rows 1 2") == usage
        assert run(shell, ".budget rows many") == \
            ["error: 'many' is not an integer"]
        assert run(shell, ".budget memory 0") == \
            ["error: the budget must be positive"]
        assert shell.settings.row_budget is None
        assert shell.settings.memory_budget is None


class TestFuzzCommand:
    def test_fuzz_runs_and_summarizes(self, shell):
        out = run(shell, ".fuzz 3 11")
        assert out[-1].startswith("fuzz seed=11: 3/3 case(s)")
        assert "0 violation(s)" in out[-1]

    def test_fuzz_rejects_garbage(self, shell):
        assert run(shell, ".fuzz lots") == ["usage: .fuzz [cases] [seed]"]
        assert run(shell, ".fuzz 0") == ["usage: .fuzz [cases] [seed]"]

    def test_fuzz_never_touches_the_shell_database(self, shell):
        run(shell, ".fuzz 2 1")
        # the scratch schemas (T1, T2, ...) must not leak in
        names = shell.db.catalog.relation_names()
        assert all(not n.startswith("T") or n == "EDGE" for n in names)


class TestShellSurvivesErrors:
    def test_dot_command_repro_error_is_reported(self, shell):
        from repro.errors import ReproError

        def explode():
            raise ReproError("inventory exploded")

        shell.db.optimizer.rewriter.rule_inventory = explode
        (out,) = run(shell, ".rules")
        assert out == "error: inventory exploded"
        # the shell is still usable afterwards
        assert any("table EDGE" in line for line in run(shell, ".schema"))
