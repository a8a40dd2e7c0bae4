"""The shell's durability dot-commands (.open/.checkpoint/.fsck/.sync)."""

import pytest

from repro.cli import Shell


def run(shell, text):
    return list(shell.run(text.strip().splitlines()))


@pytest.fixture
def shell():
    return Shell()


class TestOpen:
    def test_open_reports_recovery_summary(self, shell, tmp_path):
        (out,) = run(shell, f".open {tmp_path / 'data'}")
        assert out.startswith(f"opened {tmp_path / 'data'}: ")
        assert "recovered to lsn 0" in out

    def test_usage(self, shell):
        assert run(shell, ".open") == ["usage: .open <path>"]

    def test_statements_survive_reopen(self, shell, tmp_path):
        path = tmp_path / "data"
        run(shell, f"""
        .open {path}
        TABLE T (A : INT);
        INSERT INTO T VALUES (1), (2);
        """)
        other = Shell()
        out = run(other, f".open {path}\nSELECT A FROM T;")
        assert "2 statement(s) replayed" in out[0]
        assert "(2 rows)" in out[1]

    def test_open_preserves_session_settings(self, shell, tmp_path):
        run(shell, ".engine nested")
        run(shell, f".open {tmp_path / 'data'}")
        assert shell.db.hash_joins is False

    def test_open_keeps_statements_governed(self, shell, tmp_path):
        """The database ``.open`` swaps in is adopted like the first
        one: without governance ``.queries`` printed ``(no
        statements)`` and Ctrl-C / ``.kill`` had no token to pull."""
        assert shell.db.govern_statements is True
        out = run(shell, f"""
        .open {tmp_path / 'data'}
        TABLE T (A : INT);
        SELECT A FROM T;
        .queries
        """)
        assert shell.db.govern_statements is True
        assert "(no statements)" not in out
        assert any("SELECT A FROM T" in line for line in out[3:])

    def test_corrupt_snapshot_is_one_error_line(self, shell, tmp_path):
        """Satellite: a corrupt file yields a diagnosis, not a
        traceback, and the shell stays alive."""
        path = tmp_path / "data"
        run(shell, f".open {path}\nTABLE T (A : INT);\n.checkpoint")
        blob = bytearray((path / "snapshot.db").read_bytes())
        blob[-1] ^= 0xFF
        (path / "snapshot.db").write_bytes(bytes(blob))
        fresh = Shell()
        (out,) = run(fresh, f".open {path}")
        assert out.startswith("error: ")
        assert "delete it to recover" in out
        assert run(fresh, ".help")  # still serving

    def test_torn_wal_reported_in_summary(self, shell, tmp_path):
        path = tmp_path / "data"
        run(shell, f".open {path}\nTABLE T (A : INT);")
        shell.db.close()
        with open(path / "wal.log", "ab") as handle:
            handle.write(b"\x00\x01")
        (out,) = run(Shell(), f".open {path}")
        assert "2 byte(s) of torn tail truncated" in out

    def test_path_that_is_a_file_is_an_error(self, shell, tmp_path):
        target = tmp_path / "plain"
        target.write_text("not a directory")
        (out,) = run(shell, f".open {target}")
        assert out.startswith("error: ")


class TestCheckpointAndFsck:
    def test_checkpoint_summary(self, shell, tmp_path):
        out = run(shell, f"""
        .open {tmp_path / 'data'}
        TABLE T (A : INT);
        INSERT INTO T VALUES (1);
        .checkpoint
        """)
        assert any(o.startswith("checkpoint at lsn 2") for o in out)

    def test_checkpoint_needs_durable_db(self, shell):
        (out,) = run(shell, ".checkpoint")
        assert out == "error: no durable database open (use .open <path>)"

    def test_fsck_clean(self, shell):
        run(shell, "TABLE T (A : INT);\nINSERT INTO T VALUES (1);")
        (out,) = run(shell, ".fsck")
        assert out.startswith("fsck ok")

    def test_fsck_lists_violations_indented(self, shell):
        run(shell, "TABLE T (A : INT);")
        shell.db.catalog.table("T").rows.append((1, 2))
        out = run(shell, ".fsck")
        assert out[0] == "fsck: 1 violation(s)"
        assert out[1].startswith("  arity: ")


class TestSync:
    def test_toggle(self, shell, tmp_path):
        run(shell, f".open {tmp_path / 'data'}")
        assert run(shell, ".sync") == ["fsync on commit is off"]
        assert run(shell, ".sync on") == ["fsync on commit on"]
        assert shell.db.sync is True
        assert run(shell, ".sync off") == ["fsync on commit off"]

    def test_needs_durable_db(self, shell):
        (out,) = run(shell, ".sync on")
        assert out == "error: no durable database open (use .open <path>)"


class TestHelp:
    def test_durability_commands_documented(self, shell):
        (out,) = run(shell, ".help")
        for command in (".open", ".checkpoint", ".fsck", ".sync"):
            assert command in out
