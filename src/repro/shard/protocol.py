"""Checksummed length-prefixed JSON frames between coordinator and
shard workers.

One frame is an 8-byte big-endian header -- a 4-byte payload length
followed by the CRC32 of the payload -- and then that many bytes of
JSON.  The bytes and the checksum are :mod:`repro.codec`'s, the same
ones behind a sealed log line; only the framing differs, because a
pipe needs a length where a log needs a line end.  The explicit
length makes a half-written frame detectable: a worker killed
mid-write leaves a short read, which surfaces as :class:`FrameError`
instead of a parse of garbage.  The CRC makes *damaged* frames detectable: a bit flipped
anywhere in the stream (a garbling transport fault, a worker that
scribbled on its own stdout) fails verification instead of parsing to
a plausible-but-wrong payload.  Frames are capped at
:data:`MAX_FRAME` so a corrupted length prefix cannot make the reader
allocate gigabytes.

The coordinator speaks this protocol over each worker's stdin/stdout
pipe pair.  Request frames carry a per-client ``id`` (echoed by the
reply, so a multiplexed reader can route concurrent calls -- the
heartbeat ``ping`` rides the same pipe as a long-running op) and the
worker incarnation ``nonce`` (echoed so replies from a killed
incarnation are fenced instead of being credited to its successor).
Fact payloads ride :func:`repro.codec.encode_fact` so constraint
facts round-trip exactly.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from repro import codec

#: Upper bound on one frame's JSON payload (64 MiB).
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">II")  # payload length, payload CRC32


class FrameError(Exception):
    """The stream ended mid-frame or carried an invalid frame."""


def _encode(payload: dict) -> tuple[bytes, bytes]:
    """One frame's ``(header, body)``."""
    data = codec.dumps(payload)
    if len(data) > MAX_FRAME:
        raise FrameError(
            f"frame of {len(data)} bytes exceeds cap {MAX_FRAME}"
        )
    return _HEADER.pack(len(data), codec.crc32(data)), data


def write_frame(stream: BinaryIO, payload: dict) -> None:
    """Serialize one frame and flush it."""
    header, data = _encode(payload)
    stream.write(header + data)
    stream.flush()


def _read_exact(stream: BinaryIO, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise FrameError(
                f"stream closed {remaining} bytes short of a frame"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> dict | None:
    """The next frame, or ``None`` at a clean end of stream."""
    header = stream.read(_HEADER.size)
    if not header:
        return None  # clean EOF between frames
    while len(header) < _HEADER.size:
        more = stream.read(_HEADER.size - len(header))
        if not more:
            raise FrameError("stream closed inside a frame header")
        header += more
    length, crc = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameError(
            f"frame length {length} exceeds cap {MAX_FRAME}"
        )
    data = _read_exact(stream, length)
    if codec.crc32(data) != crc:
        raise FrameError(
            f"frame checksum mismatch over {length} bytes"
        )
    try:
        payload = codec.loads(data)
    except ValueError as error:
        raise FrameError(f"undecodable frame: {error}") from None
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be an object, got {type(payload)}"
        )
    return payload


def garbled_frame(payload: dict) -> bytes:
    """A deliberately corrupted encoding of ``payload``.

    Used by the ``garble:<op>`` protocol fault: the frame is built
    normally and then one payload byte is flipped, so the reader's CRC
    check must reject it -- exercising exactly the detection path a
    real scribbled pipe would take.
    """
    header, data = _encode(payload)
    flipped = bytearray(data)
    flipped[len(flipped) // 2] ^= 0xFF
    return header + bytes(flipped)
