"""Length-prefixed framed messages between supervisor and workers.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON.  The framing is deliberately primitive: both ends
must survive the other dying at *any* byte, and a fixed-width length
prefix makes a torn frame detectable as a short read instead of a
parser wedge.  Values that are not JSON-native (collections, tuples,
object references) ride in the tagged encoding of the durability
layer's :func:`~repro.durability.snapshot.encode_value` -- the same
codec the WAL's snapshot payloads use, so the pool adds no second
serialisation dialect.

Message taxonomy (``type`` field):

==============  ==========================================================
supervisor -> worker
``boot``        first frame: snapshot-codable database state, the
                statement feed, heartbeat config
``execute``     one statement: source, sync delta, the statement's
                resolved options as one object, the parent's benched
                rule names
``cancel``      pull the cancel token of the in-flight statement
``shutdown``    drain and exit 0
``stall``       test/chaos hook: stop heartbeating and sleep (simulates
                a wedged worker that holds the GIL or a native call)
``exit``        test/chaos hook: ``os._exit(code)`` immediately
worker -> supervisor
``hello``       boot finished; carries the pid
``heartbeat``   liveness beacon, every ``heartbeat_interval_s``
``result``      statement finished: rows, schema, work counters
``error``       statement raised: the typed :func:`error_payload` dict
==============  ==========================================================

Frame writes are locked by the caller (the worker's heartbeat thread
and result writes share one stdout), reads are single-threaded on both
ends.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

__all__ = ["send_frame", "recv_frame", "FrameError", "MAX_FRAME_BYTES"]

_LENGTH = struct.Struct(">I")

# a boot frame carries the whole database snapshot; everything else is
# tiny.  The cap exists to turn a corrupt length prefix into a typed
# error instead of a multi-gigabyte allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameError(Exception):
    """A torn or malformed frame (usually: the peer died mid-write)."""


def send_frame(stream, message: dict) -> int:
    """Write one framed message; returns the bytes written.

    Raises whatever the stream raises when the peer is gone
    (``BrokenPipeError`` and friends) -- the caller decides whether
    that is a crash or a shutdown.
    """
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    stream.write(_LENGTH.pack(len(payload)) + payload)
    stream.flush()
    return _LENGTH.size + len(payload)


def recv_frame(stream) -> Optional[dict]:
    """Read one framed message; ``None`` on a clean EOF at a frame
    boundary (the peer closed its end), :class:`FrameError` on a torn
    or malformed frame."""
    header = _read_exact(stream, _LENGTH.size, at_boundary=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds the cap")
    payload = _read_exact(stream, length, at_boundary=False)
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"undecodable frame payload: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise FrameError(f"frame is not a typed message: {message!r}")
    return message


def _read_exact(stream, n: int, at_boundary: bool) -> Optional[bytes]:
    """Read exactly ``n`` bytes.  EOF at a frame boundary is a clean
    ``None``; EOF inside a frame is a torn write -- the peer died."""
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if at_boundary and remaining == n:
                return None
            raise FrameError(
                f"stream ended {remaining} byte(s) short of a frame"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
