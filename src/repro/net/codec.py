"""Transport-agnostic bulk frame codec (pickle 5, out-of-band buffers).

Pregelix's lesson (PAPERS.md) — and the wire model :mod:`repro.cloud.network`
simulates — is that BSP message movement should be bulk, serialized dataflow,
not per-message sends.  Every repro transport therefore moves one *frame*
per logical unit (a command, a reply, a per-destination message bucket),
serialized once.  This module is the single codec shared by the pipe
backend (:mod:`repro.dist`) and the TCP backend (:mod:`repro.net.tcp`).

Frame layout (little-endian, self-describing):

    [u32 n_buffers]
    [u64 pickle_len][pickle bytes (protocol 5)]
    n_buffers x ([u64 buf_len][raw buffer bytes])

NumPy payload arrays travel as out-of-band :class:`pickle.PickleBuffer`\\ s:
the pickle stream holds only array metadata, the raw bytes ride behind it,
and :func:`unpack_frame` hands them back as zero-copy memoryview slices of
the received blob (read-only — which is exactly the message contract,
RPC001).  Pass ``copy=True`` to materialize writable copies instead (the
TCP daemon does this for init payloads whose arrays must stay mutable and
must not pin the receive buffer).

Stream framing: message-oriented channels (multiprocessing pipes) carry
frames as-is, one per message.  Byte-stream channels (TCP sockets) wrap
each frame in an outer ``[u64 frame_len]`` prefix — see
:func:`encode_stream_frame` and :class:`StreamDecoder`, which reassembles
frames from arbitrary chunk boundaries and rejects oversized or malformed
input with a typed :class:`FrameError` instead of unpickling garbage.
"""

from __future__ import annotations

import pickle
import struct

__all__ = [
    "FrameError",
    "FrameTooLarge",
    "MAX_FRAME_BYTES",
    "STREAM_HEADER",
    "StreamDecoder",
    "encode_stream_frame",
    "pack_frame",
    "unpack_frame",
]

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Outer length prefix used on byte-stream transports.
STREAM_HEADER = _U64

#: Refuse frames beyond this size (2 GiB): a corrupt or hostile length
#: prefix must not make a receiver buffer unbounded memory.
MAX_FRAME_BYTES = 1 << 31


class FrameError(ValueError):
    """A frame is malformed: truncated, trailing garbage, or bad pickle.

    Subclasses :class:`ValueError` so pre-existing callers that caught
    ``ValueError`` keep working.
    """


class FrameTooLarge(FrameError):
    """A frame's declared length exceeds the receiver's limit."""


def pack_frame(obj: object) -> bytes:
    """Serialize ``obj`` into one self-contained length-prefixed frame."""
    buffers: list[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    parts: list[bytes | memoryview] = [
        _U32.pack(len(buffers)),
        _U64.pack(len(payload)),
        payload,
    ]
    for buf in buffers:
        raw = buf.raw()
        parts.append(_U64.pack(raw.nbytes))
        parts.append(raw)
    return b"".join(parts)


def unpack_frame(blob: bytes | memoryview, *, copy: bool = False) -> object:
    """Inverse of :func:`pack_frame`.

    With ``copy=False`` (default) out-of-band buffers stay zero-copy
    read-only views into ``blob``; with ``copy=True`` they become private
    writable ``bytearray`` copies (so reconstructed arrays are mutable and
    ``blob`` is not pinned by the result).

    Raises :class:`FrameError` on any malformed input — truncation,
    trailing bytes, or a pickle stream that does not decode.
    """
    view = memoryview(blob)
    if view.nbytes < _U32.size + _U64.size:
        raise FrameError(
            f"frame header truncated: {view.nbytes} bytes, "
            f"need at least {_U32.size + _U64.size}"
        )
    (n_buffers,) = _U32.unpack_from(view, 0)
    offset = _U32.size
    (pickle_len,) = _U64.unpack_from(view, offset)
    offset += _U64.size
    if offset + pickle_len > view.nbytes:
        raise FrameError(
            f"frame truncated: pickle stream declares {pickle_len} bytes, "
            f"only {view.nbytes - offset} remain"
        )
    payload = view[offset:offset + pickle_len]
    offset += pickle_len
    buffers: list[memoryview | bytearray] = []
    for i in range(n_buffers):
        if offset + _U64.size > view.nbytes:
            raise FrameError(f"frame truncated in buffer {i} length prefix")
        (buf_len,) = _U64.unpack_from(view, offset)
        offset += _U64.size
        if offset + buf_len > view.nbytes:
            raise FrameError(
                f"frame truncated: buffer {i} declares {buf_len} bytes, "
                f"only {view.nbytes - offset} remain"
            )
        raw = view[offset:offset + buf_len]
        buffers.append(bytearray(raw) if copy else raw)
        offset += buf_len
    if offset != view.nbytes:
        raise FrameError(f"frame has {view.nbytes - offset} trailing bytes")
    try:
        return pickle.loads(payload, buffers=buffers)
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError(f"frame pickle does not decode: {exc!r}") from exc


def encode_stream_frame(
    obj: object, max_frame: int = MAX_FRAME_BYTES
) -> bytes:
    """``pack_frame`` plus the outer length prefix for byte streams."""
    frame = pack_frame(obj)
    if len(frame) > max_frame:
        raise FrameTooLarge(
            f"frame of {len(frame)} bytes exceeds the {max_frame}-byte limit"
        )
    return STREAM_HEADER.pack(len(frame)) + frame


class StreamDecoder:
    """Incremental frame reassembly for byte-stream transports.

    Feed it whatever the socket produced — partial headers, partial
    frames, several frames at once — and it yields each complete decoded
    object exactly once.  A declared length beyond ``max_frame`` raises
    :class:`FrameTooLarge` immediately (before buffering the body).

    Each frame decodes from its own private ``bytearray``, so out-of-band
    buffers come back as writable views of it: a checkpoint the
    coordinator received can be sent back out as mutable vertex state.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = int(max_frame)
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buf)

    def feed(self, data: bytes | memoryview) -> list[object]:
        """Absorb ``data``; return every frame it completed, in order."""
        self._buf += data
        out: list[object] = []
        header = STREAM_HEADER.size
        while len(self._buf) >= header:
            (frame_len,) = STREAM_HEADER.unpack_from(self._buf, 0)
            if frame_len > self.max_frame:
                raise FrameTooLarge(
                    f"incoming frame declares {frame_len} bytes, "
                    f"limit is {self.max_frame}"
                )
            if len(self._buf) < header + frame_len:
                break
            frame = self._buf[header:header + frame_len]
            del self._buf[:header + frame_len]
            out.append(unpack_frame(frame))
        return out
