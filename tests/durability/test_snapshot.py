"""Snapshots: value encoding, atomic install, restore, crash windows."""

import pytest

from repro import Database
from repro.adt.values import (BagValue, ListValue, ObjectRef, SetValue,
                              TupleValue)
from repro.durability import (CrashPoint, SimulatedCrash, decode_value,
                              encode_value, load_snapshot, scan_wal)
from repro.errors import DurabilityError

_SCRIPT = """
TYPE Category ENUMERATION OF ('Comedy', 'Adventure');
TYPE Point TUPLE (ABS : REAL, ORD : REAL);
TYPE Person OBJECT TUPLE (Name : CHAR, Firstname : SET OF CHAR,
                          Caricature : LIST OF Point);
TYPE Text LIST OF CHAR;
TABLE FILM (Numf : NUMERIC, Title : Text, Cat : Category,
            PRIMARY KEY (Numf));
TABLE CAST_IN (Numf : NUMERIC, Who : Person);
CREATE VIEW COMEDIES (Numf) AS
  SELECT Numf FROM FILM WHERE Cat = 'Comedy';
INSERT INTO FILM VALUES (1, LIST('U','p'), 'Comedy'),
                        (2, LIST('Z'), 'Adventure');
INSERT INTO CAST_IN VALUES
  (1, NEW Person('Quinn', SET('A','B'), LIST())),
  (2, NEW Person('Bo', SET('B'), LIST()));
"""


def _state(db):
    return {
        "tables": {
            name: [list(r) for r in db.catalog.table(name).rows]
            for name in sorted(db.catalog.relation_names())
        },
        "views": sorted(db.catalog.view_names()),
        "objects": db.catalog.objects.items(),
        "next_oid": db.catalog.objects.mark(),
    }


class TestValueEncoding:
    @pytest.mark.parametrize("value", [
        None, True, 7, 2.5, "text",
        SetValue([1, 2]), BagValue(["a", "a"]), ListValue([1.0, 2.0]),
        TupleValue([("X", 1), ("Y", SetValue(["a"]))]),
        ObjectRef(3, "Person"),
        ListValue([TupleValue([("P", ObjectRef(1, "Person"))])]),
    ])
    def test_roundtrip(self, value):
        import json
        wire = json.loads(json.dumps(encode_value(value)))
        assert decode_value(wire) == value

    def test_collection_kind_preserved(self):
        assert isinstance(decode_value(encode_value(SetValue([1]))),
                          SetValue)
        assert isinstance(decode_value(encode_value(BagValue([1]))),
                          BagValue)

    def test_unknown_tag_rejected(self):
        with pytest.raises(DurabilityError):
            decode_value({"$x": 1})

    def test_unserialisable_value_rejected(self):
        with pytest.raises(DurabilityError):
            encode_value(object())


class TestCheckpointRoundtrip:
    def test_reopen_restores_everything(self, tmp_path):
        path = str(tmp_path / "data")
        db = Database(path=path)
        db.execute(_SCRIPT)
        db.checkpoint()
        before = _state(db)
        db.close()

        db2 = Database(path=path)
        assert _state(db2) == before
        # the view still evaluates against the restored data
        assert db2.query("SELECT Numf FROM COMEDIES").rows == [(1,)]
        assert db2.fsck().ok
        db2.close()

    def test_checkpoint_resets_wal(self, tmp_path):
        path = str(tmp_path / "data")
        db = Database(path=path)
        db.execute(_SCRIPT)
        assert scan_wal(db.durability.wal.path).records
        report = db.checkpoint()
        assert scan_wal(db.durability.wal.path).records == []
        assert report.last_lsn == db.durability.last_lsn
        assert report.relations == 2
        db.close()

    def test_recovery_skips_snapshotted_statements(self, tmp_path):
        """Post-checkpoint statements replay; the snapshot covers the
        rest (no stale records on the clean path)."""
        path = str(tmp_path / "data")
        db = Database(path=path)
        db.execute(_SCRIPT)
        db.checkpoint()
        db.execute("INSERT INTO FILM VALUES (3, LIST('N'), 'Comedy')")
        db.close()

        db2 = Database(path=path)
        assert db2.recovery.replayed == 1
        assert db2.recovery.stale == 0
        assert db2.recovery.snapshot_lsn > 0
        assert sorted(r[0] for r in db2.catalog.rows("FILM")) == [1, 2, 3]
        db2.close()

    def test_replayed_statements_reuse_original_oids(self, tmp_path):
        """OID allocation after restore continues where the snapshot
        left off, so WAL replay reproduces identical references."""
        path = str(tmp_path / "data")
        db = Database(path=path)
        db.execute(_SCRIPT)
        db.checkpoint()
        db.execute("INSERT INTO CAST_IN VALUES "
                   "(2, NEW Person('Ann', SET('A'), LIST()))")
        expected = _state(db)
        db.close()

        db2 = Database(path=path)
        assert _state(db2) == expected
        db2.close()

    def test_memory_database_has_no_durability_layer(self):
        db = Database()
        assert db.durability is None and db.recovery is None

    @pytest.mark.parametrize("sync", [False, True])
    def test_clean_checkpoint_recovers_without_replay(self, tmp_path,
                                                      sync):
        """Fifty logged inserts under either sync policy: the WAL alone
        recovers them, and after a checkpoint the snapshot does, with
        nothing left to replay."""
        path = str(tmp_path / "data")
        db = Database(path=path, sync=sync)
        db.execute("TABLE T (Id : NUMERIC, V : NUMERIC, PRIMARY KEY (Id))")
        for i in range(50):
            db.execute(f"INSERT INTO T VALUES ({i}, {i * 7})")
        db.close()
        db = Database(path=path)
        assert (db.recovery.replayed, db.recovery.snapshot_lsn) == (51, 0)
        assert len(db.catalog.rows("T")) == 50 and db.fsck().ok
        db.checkpoint()
        db.close()
        db = Database(path=path)
        assert (db.recovery.replayed, db.recovery.snapshot_lsn) == (0, 51)
        assert len(db.catalog.rows("T")) == 50 and db.fsck().ok
        db.close()

    def test_checkpoint_requires_path(self):
        with pytest.raises(DurabilityError):
            Database().checkpoint()


class TestSnapshotCorruption:
    def _durable(self, tmp_path):
        path = str(tmp_path / "data")
        db = Database(path=path)
        db.execute(_SCRIPT)
        db.checkpoint()
        db.close()
        return path

    def test_bad_magic(self, tmp_path):
        path = self._durable(tmp_path)
        snap = tmp_path / "data" / "snapshot.db"
        snap.write_bytes(b"junk" + snap.read_bytes())
        with pytest.raises(DurabilityError, match="bad magic"):
            Database(path=path)

    def test_checksum_mismatch_names_the_remedy(self, tmp_path):
        path = self._durable(tmp_path)
        snap = tmp_path / "data" / "snapshot.db"
        blob = bytearray(snap.read_bytes())
        blob[-1] ^= 0xFF
        snap.write_bytes(bytes(blob))
        with pytest.raises(DurabilityError,
                           match="delete it to recover"):
            Database(path=path)

    def test_unreadable_header(self, tmp_path):
        path = self._durable(tmp_path)
        snap = tmp_path / "data" / "snapshot.db"
        snap.write_bytes(b"RSNAP1 nonsense\n{}")
        with pytest.raises(DurabilityError, match="unreadable header"):
            Database(path=path)

    def test_deleting_snapshot_recovers_from_wal(self, tmp_path):
        """The remedy the error message promises actually works."""
        path = str(tmp_path / "data")
        db = Database(path=path)
        db.execute(_SCRIPT)  # never checkpointed: WAL has everything
        expected = _state(db)
        db.close()
        db2 = Database(path=path)
        assert _state(db2) == expected
        db2.close()


class TestCheckpointCrashWindows:
    def _run(self, tmp_path, site):
        path = str(tmp_path / "data")
        db = Database(path=path)
        db.execute(_SCRIPT)
        expected = _state(db)
        db.durability.crashpoint = CrashPoint(site, at_byte=40)
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        db.close()
        db2 = Database(path=path)
        assert _state(db2) == expected
        assert db2.fsck().ok
        return db2

    def test_crash_in_temp_file(self, tmp_path):
        db2 = self._run(tmp_path, "checkpoint-temp")
        # snapshot was never installed; recovery came from the WAL
        assert db2.recovery.snapshot_lsn == 0
        assert db2.recovery.stale == 0
        db2.close()

    def test_crash_before_rename(self, tmp_path):
        db2 = self._run(tmp_path, "checkpoint-rename")
        assert db2.recovery.snapshot_lsn == 0
        db2.close()

    def test_crash_before_wal_reset_skips_stale_records(self, tmp_path):
        """The snapshot installed but the old WAL survived: every
        pre-checkpoint record is stale and skipped by its LSN."""
        db2 = self._run(tmp_path, "wal-reset")
        assert db2.recovery.snapshot_lsn > 0
        assert db2.recovery.replayed == 0
        assert db2.recovery.stale > 0
        db2.close()

    def test_second_checkpoint_after_crash(self, tmp_path):
        db2 = self._run(tmp_path, "wal-reset")
        db2.checkpoint()  # the crash point is gone on the new manager
        snap = load_snapshot(db2.durability.snapshot_path)
        assert snap["last_lsn"] == db2.durability.last_lsn
        db2.close()
