"""Checkpoints: a full-state snapshot installed by atomic rename.

A snapshot compacts the log: after one is installed, WAL records with
LSN <= its ``last_lsn`` are dead weight (recovery skips them) and the
log is reset.  The file holds::

    RSNAP1 <crc32-hex> <payload-length>\\n
    <JSON payload>

and the payload carries three sections:

``ddl``      the ordered DDL statement texts executed so far; replaying
             them through the translator rebuilds types, tables, views
             and constraints exactly (schema-as-text, the hybrid every
             dump format uses)
``tables``   per-relation row data, values in the tagged encoding of
             :func:`encode_value` (data-as-state: DML history is *not*
             replayed, which is the compaction win)
``objects``  the ObjectStore contents plus its OID counter, so replayed
             WAL statements after the snapshot allocate the same OIDs
             the original execution did

Installation is write-temp + fsync + ``os.replace`` + directory fsync:
a crash at any byte leaves either the previous snapshot or the new one,
never a blend.  The temp file is ignored by :func:`load_snapshot`.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Optional

from repro.adt.values import (COLLECTION_CTORS, CollectionValue, ObjectRef,
                              TupleValue)
from repro.durability.crash import CrashPoint, guarded_write
from repro.errors import DurabilityError

__all__ = ["SNAPSHOT_FORMAT", "encode_value", "decode_value",
           "snapshot_state", "write_snapshot", "load_snapshot",
           "restore_state"]

SNAPSHOT_FORMAT = 1
_SNAP_PREFIX = b"RSNAP1 "

_COLLECTION_TAGS = {ctor: tag for tag, ctor in COLLECTION_CTORS.items()}


def encode_value(value: Any) -> Any:
    """Runtime value -> JSON-safe tagged form (lossless round trip)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, CollectionValue):
        tag = _COLLECTION_TAGS.get(type(value))
        if tag is None:
            raise DurabilityError(
                f"cannot serialise collection kind {type(value).__name__}"
            )
        return {"$c": [tag, [encode_value(e) for e in value.elements]]}
    if isinstance(value, TupleValue):
        return {"$t": [
            [name, encode_value(item)]
            for name, item in zip(value.field_names, value.field_values)
        ]}
    if isinstance(value, ObjectRef):
        return {"$r": [value.oid, value.type_name]}
    raise DurabilityError(f"cannot serialise value {value!r}")


def decode_value(encoded: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(encoded, dict):
        if "$c" in encoded:
            kind, elements = encoded["$c"]
            return COLLECTION_CTORS[kind](
                decode_value(e) for e in elements
            )
        if "$t" in encoded:
            return TupleValue(
                [(name, decode_value(v)) for name, v in encoded["$t"]]
            )
        if "$r" in encoded:
            oid, type_name = encoded["$r"]
            return ObjectRef(oid, type_name)
        raise DurabilityError(f"unknown value tag in {encoded!r}")
    return encoded


def snapshot_state(catalog, ddl_history, last_lsn: int) -> dict:
    """Capture the full engine state as the snapshot payload dict."""
    tables = {}
    for name in catalog.relation_names():
        relation = catalog.table(name)
        tables[name] = [
            [encode_value(v) for v in row] for row in relation.rows
        ]
    return {
        "format": SNAPSHOT_FORMAT,
        "last_lsn": last_lsn,
        "ddl": list(ddl_history),
        "tables": tables,
        "objects": {
            "next_oid": catalog.objects.mark(),
            "items": [
                [oid, type_name, encode_value(value)]
                for oid, type_name, value in catalog.objects.items()
            ],
        },
    }


def write_snapshot(path: str, state: dict,
                   crashpoint: Optional[CrashPoint] = None) -> int:
    """Install ``state`` at ``path`` atomically; returns bytes written."""
    payload = json.dumps(
        state, separators=(",", ":"), sort_keys=True
    ).encode("utf-8")
    header = b"%s%08x %d\n" % (
        _SNAP_PREFIX, zlib.crc32(payload), len(payload)
    )
    blob = header + payload
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        guarded_write(handle, blob, "checkpoint-temp", 0, crashpoint)
        handle.flush()
        os.fsync(handle.fileno())
    if crashpoint is not None and \
            crashpoint.site == "checkpoint-rename":
        crashpoint.fire()
    os.replace(tmp, path)
    from repro.durability.wal import _fsync_dir
    _fsync_dir(os.path.dirname(path))
    return len(blob)


def load_snapshot(path: str) -> Optional[dict]:
    """Read and verify a snapshot; ``None`` when none is installed."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        blob = handle.read()
    if not blob.startswith(_SNAP_PREFIX):
        raise DurabilityError(
            f"snapshot {path!r} is corrupt (bad magic); "
            f"delete it to recover from the WAL alone"
        )
    newline = blob.find(b"\n")
    try:
        crc_hex, length_text = blob[len(_SNAP_PREFIX):newline].split()
        expected_crc = int(crc_hex, 16)
        expected_length = int(length_text)
    except ValueError:
        raise DurabilityError(
            f"snapshot {path!r} is corrupt (unreadable header)"
        ) from None
    payload = blob[newline + 1:]
    if len(payload) != expected_length or \
            zlib.crc32(payload) != expected_crc:
        raise DurabilityError(
            f"snapshot {path!r} is corrupt (checksum mismatch); "
            f"delete it to recover from the WAL alone"
        )
    state = json.loads(payload)
    if state.get("format") != SNAPSHOT_FORMAT:
        raise DurabilityError(
            f"snapshot {path!r} has unsupported format "
            f"{state.get('format')!r}"
        )
    return state


def restore_state(database, state: dict) -> None:
    """Load a snapshot payload into a *fresh* Database.

    Objects first (DDL replay never allocates OIDs but row data
    references them), then the DDL history through the normal replay
    path (which rebuilds ``database._ddl_history`` as it goes), then
    the raw row data.
    """
    objects = state["objects"]
    database.catalog.objects.load(
        [(oid, type_name, decode_value(value))
         for oid, type_name, value in objects["items"]],
        objects["next_oid"],
    )
    for sql in state["ddl"]:
        database._replay_statement(sql)
    for name, rows in state["tables"].items():
        relation = database.catalog.table(name)
        relation.replace_rows(
            tuple(decode_value(v) for v in row) for row in rows
        )
