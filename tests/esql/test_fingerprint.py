"""Query fingerprinting: normalization, identity, propagation."""

import threading

from repro.esql import fingerprint as fp_mod
from repro.esql.fingerprint import (Fingerprint, current_fingerprint,
                                    fingerprint_source, use_fingerprint)


def fp(source: str) -> Fingerprint:
    return fingerprint_source(source)


class TestTemplates:
    def test_literals_become_numbered_parameters(self):
        out = fp("SELECT A FROM T WHERE B = 10")
        assert out.template == "SELECT A FROM T WHERE (B = $1)"
        assert len(out.fingerprint) == 12
        int(out.fingerprint, 16)  # hex

    def test_different_constants_same_fingerprint(self):
        assert fp("SELECT A FROM T WHERE B = 10") == \
            fp("SELECT A FROM T WHERE B = 99")
        assert fp("SELECT A FROM T WHERE B = 'x'") == \
            fp("SELECT A FROM T WHERE B = 'another string'")

    def test_casing_is_normalized(self):
        assert fp("select a from t where b = 1") == \
            fp("SELECT A FROM T WHERE B = 2")
        assert fp("select t.a from t where t.b = 1") == \
            fp("SELECT T.A FROM T WHERE T.B = 2")

    def test_whitespace_is_normalized(self):
        assert fp("SELECT  A\nFROM   T\tWHERE B = 1") == \
            fp("SELECT A FROM T WHERE B = 2")

    def test_commutative_conjuncts_reorder(self):
        # AND operands sort on their literal-free form, so the same
        # predicate written in either order is one statement
        assert fp("SELECT A FROM T WHERE A = 1 AND B = 2") == \
            fp("SELECT A FROM T WHERE B = 9 AND A = 8")
        assert fp("SELECT A FROM T WHERE A = 1 OR B = 2") == \
            fp("SELECT A FROM T WHERE B = 9 OR A = 8")

    def test_distinct_shapes_stay_distinct(self):
        shapes = [
            "SELECT A FROM T WHERE B = 1",
            "SELECT A FROM T WHERE B > 1",
            "SELECT A FROM T",
            "SELECT DISTINCT A FROM T WHERE B = 1",
            "SELECT A, B FROM T WHERE B = 1",
            "DELETE FROM T WHERE B = 1",
        ]
        prints = {fp(s).fingerprint for s in shapes}
        assert len(prints) == len(shapes)

    def test_dml_parameterizes(self):
        assert fp("INSERT INTO T VALUES (1, 2)") == \
            fp("insert into t values (8, 9)")
        assert fp("UPDATE T SET B = 5 WHERE A = 1") == \
            fp("update t set b = 0 where a = 3")

    def test_ddl_falls_back_to_class_name(self):
        out = fp("CREATE TABLE Q (A : INT)")
        assert out.template == "TableDef"

    def test_unparseable_text_gets_raw_template(self):
        out = fp("THIS IS NOT ESQL ;;;")
        assert out.template.startswith("!")
        assert out.fingerprint  # still a stable grouping key

    def test_raw_fallback_cannot_collide_with_templates(self):
        # the "!" marker keeps a raw statement whose text *looks* like
        # a rendered template in its own bucket
        rendered = fp("SELECT A FROM T WHERE B = 1").template
        assert fp(rendered).template == "!" + rendered


class TestMemo:
    def test_repeat_lookups_hit_the_memo(self):
        source = "SELECT A FROM T WHERE B = 123456"
        first = fingerprint_source(source)
        assert fingerprint_source(source) is first

    def test_memo_is_bounded(self):
        fp_mod._memo.clear()
        for i in range(fp_mod._MEMO_CAPACITY + 10):
            fingerprint_source(f"SELECT A FROM T WHERE B = {i}")
        assert len(fp_mod._memo) <= fp_mod._MEMO_CAPACITY


class TestPropagation:
    def test_contextvar_roundtrip(self):
        assert current_fingerprint() is None
        stamp = fp("SELECT A FROM T")
        with use_fingerprint(stamp):
            assert current_fingerprint() is stamp
        assert current_fingerprint() is None

    def test_threads_do_not_leak(self):
        stamp = fp("SELECT A FROM T")
        seen = []
        with use_fingerprint(stamp):
            thread = threading.Thread(
                target=lambda: seen.append(current_fingerprint())
            )
            thread.start()
            thread.join()
        assert seen == [None]

    def test_falsy_when_empty(self):
        assert not Fingerprint("", "")
        assert fp("SELECT A FROM T")


class TestDigest:
    def test_a_statement_loads_no_openssl_and_digests_match_hashlib(self):
        # a fresh interpreter: this one may have imported hashlib already
        import subprocess
        import sys
        from pathlib import Path
        script = (
            "import sys\n"
            "from repro import Database\n"
            "db = Database()\n"
            "db.execute('TABLE T (A : NUMERIC); INSERT INTO T VALUES (1)')\n"
            "assert db.query('SELECT A FROM T WHERE A = 1').rows == [(1,)]\n"
            "db.explain('SELECT A FROM T WHERE A = 1')\n"
            "assert '_hashlib' not in sys.modules, 'OpenSSL loaded'\n"
            "import hashlib\n"
            "from repro.digest import sha1\n"
            "for data in (b'', b'abc', bytes(range(256)) * 9):\n"
            "    assert sha1(data).hexdigest() == "
            "hashlib.sha1(data).hexdigest()\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={"PYTHONPATH": str(src)}, timeout=60)
