"""Length-prefixed binary framing for the tcp transport.

Every message on a :mod:`repro.net` socket is one *frame*.  Two header
layouts share the magic/version/kind prefix and are negotiated
**per frame** — a sender only emits the extended layout when it has a
flag to set, so peers that never compress interoperate bit-for-bit with
the original protocol within the same run:

====== ====== ===========================================================
offset size   field
====== ====== ===========================================================
0      2      magic ``b"RN"``
2      1      protocol version: 1 = base frame, 2 = flagged frame
3      1      frame kind: 1 = request, 2 = response, 3 = one-way messages
4      1      flags byte (version 2 only; bit 0 = zlib payload)
...    4      payload length on the wire, unsigned big-endian
...    n      payload (closure-pickled, :mod:`repro.dag.serde`)
====== ====== ===========================================================

The header is versioned so a wire change is detected instead of
misparsed; a magic/version mismatch raises :class:`FrameError`
immediately rather than desynchronizing the stream.  Payload size is
bounded (1 GiB) purely as a corruption guard — a garbled length field
otherwise reads as a multi-terabyte allocation.  The same bound applies
after decompression, so a hostile/corrupt zlib stream cannot balloon.

A kind-3 frame carries *several* one-way messages (see
:meth:`repro.engine.rpc.BaseTransport.post`): its payload is each
message's own payload behind a 4-byte big-endian length, back to back
(:func:`encode_messages` / :func:`decode_messages`).  The receiver
dispatches them in order and answers the whole frame with one response.

Sockets that carry many frames are read through a :class:`FramedSocket`,
which keeps one reusable buffer per connection so a small frame costs one
``recv`` instead of three.
"""

from __future__ import annotations

import socket
import struct
import zlib
from typing import List, Sequence, Tuple

from repro.common.errors import ReproError

MAGIC = b"RN"
VERSION = 1  # base header: no flags byte
VERSION_FLAGS = 2  # extended header: one flags byte before the length
KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_POST = 3  # several one-way messages, acknowledged by one response
_KNOWN_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_POST)

# Base (version 1) header — also the layout tests and docs refer to.
HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = HEADER.size  # 8 bytes
# Extended (version 2) header: magic, version, kind, flags, length.
HEADER_FLAGS = struct.Struct(">2sBBBI")
HEADER_FLAGS_SIZE = HEADER_FLAGS.size  # 9 bytes
# Shared prefix of both layouts, read first to pick the tail format.
_PREFIX = struct.Struct(">2sBB")
_TAIL_V1 = struct.Struct(">I")
_TAIL_V2 = struct.Struct(">BI")
# Length prefix of each message inside a KIND_POST payload.
_MESSAGE_LEN = struct.Struct(">I")

# Flags byte bits (version-2 frames only).
FLAG_ZLIB = 0x01
_KNOWN_FLAGS = FLAG_ZLIB

MAX_PAYLOAD = 1 << 30

# Per-connection read buffer: frames up to this size (every control
# message, most launches and small fetch replies) arrive in one recv; a
# larger payload is read straight into its own buffer instead.
READ_BUFFER_SIZE = 16 * 1024

# zlib level 1: the payloads are pickles crossing loopback — cheap and
# fast beats maximal ratio on this path.
_ZLIB_LEVEL = 1


class FrameError(ReproError):
    """The byte stream does not parse as a repro.net frame."""


class ConnectionClosed(ReproError):
    """The peer closed the connection (EOF) at a frame boundary or
    mid-frame."""


def encode_frame(kind: int, payload: bytes, flags: int = 0) -> bytes:
    """Build one wire frame: versioned header + payload.

    With ``flags == 0`` the frame is byte-identical to the version-1
    protocol; any set flag switches to the version-2 header.
    """
    if len(payload) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(payload)} bytes exceeds frame limit")
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"unknown frame flags 0x{flags:02x}")
    if flags:
        return HEADER_FLAGS.pack(MAGIC, VERSION_FLAGS, kind, flags, len(payload)) + payload
    return HEADER.pack(MAGIC, VERSION, kind, len(payload)) + payload


def compress_payload(
    payload: bytes, mode: str = "off", threshold: int = 4096
) -> Tuple[bytes, int, int]:
    """Maybe zlib-compress a payload before framing.

    Returns ``(wire_payload, flags, bytes_saved)``.  ``mode`` follows
    :class:`~repro.common.config.DataPlaneConf.compression`: ``"off"``
    never compresses, ``"auto"`` compresses payloads of at least
    ``threshold`` bytes, ``"on"`` tries every payload.  Compression is
    kept only when it actually shrinks the payload, so the flag on the
    wire always means the receiver must inflate.
    """
    if mode == "off" or not payload:
        return payload, 0, 0
    if mode == "auto" and len(payload) < threshold:
        return payload, 0, 0
    packed = zlib.compress(payload, _ZLIB_LEVEL)
    if len(packed) >= len(payload):
        return payload, 0, 0
    return packed, FLAG_ZLIB, len(payload) - len(packed)


def encode_messages(payloads: Sequence[bytes]) -> bytes:
    """Payload of a ``KIND_POST`` frame: every message behind its length."""
    parts: List[bytes] = []
    for payload in payloads:
        parts.append(_MESSAGE_LEN.pack(len(payload)))
        parts.append(payload)
    return b"".join(parts)


def decode_messages(payload: bytes) -> List[bytes]:
    """Split a ``KIND_POST`` payload back into its messages; a length that
    runs past the end raises :class:`FrameError`."""
    messages: List[bytes] = []
    offset, end = 0, len(payload)
    while offset < end:
        if end - offset < _MESSAGE_LEN.size:
            raise FrameError("truncated message length in one-way frame")
        (length,) = _MESSAGE_LEN.unpack_from(payload, offset)
        offset += _MESSAGE_LEN.size
        if length > end - offset:
            raise FrameError(
                f"message of {length} bytes overruns one-way frame "
                f"({end - offset} left)"
            )
        messages.append(payload[offset : offset + length])
        offset += length
    return messages


class FramedSocket:
    """A connected socket plus the read buffer of its frame stream.

    The buffer is allocated once per connection and reused for every
    frame, so reading a small frame is one ``recv_into`` with no
    per-frame allocation beyond the payload it returns.  Bytes read past
    the current frame (several frames sent back to back) stay buffered
    for the next :meth:`read_frame_ex`.

    ``readahead=False`` never reads past the frame being parsed — for a
    one-shot read from a socket whose later bytes belong to someone else
    (the module-level :func:`read_frame_ex`).
    """

    def __init__(
        self,
        sock: socket.socket,
        bufsize: int = READ_BUFFER_SIZE,
        readahead: bool = True,
    ):
        self.sock = sock
        self._buf = bytearray(max(bufsize, HEADER_FLAGS_SIZE))
        self._view = memoryview(self._buf)
        self._start = 0  # first unconsumed byte
        self._end = 0  # one past the last buffered byte
        self._readahead = readahead

    def sendall(self, data: bytes) -> None:
        self.sock.sendall(data)

    def shutdown(self) -> None:
        """Reset the stream under whoever is using the socket: a thread
        blocked reading it wakes with :class:`ConnectionClosed`."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        self.shutdown()
        try:
            self.sock.close()
        except OSError:
            pass

    def _fill(self, n: int) -> None:
        """Buffer at least ``n`` unconsumed bytes (``n`` <= capacity)."""
        have = self._end - self._start
        if have >= n:
            return
        if not have:
            self._start = self._end = 0
        elif self._start + n > len(self._buf):
            # The frame would run off the end: move its head to the front.
            self._buf[:have] = self._buf[self._start : self._end]
            self._start, self._end = 0, have
        while have < n:
            stop = len(self._buf) if self._readahead else self._start + n
            got = self.sock.recv_into(self._view[self._end : stop])
            if not got:
                raise ConnectionClosed(
                    f"peer closed connection ({have}/{n} bytes read)"
                )
            self._end += got
            have += got

    def _read_large(self, skip: int, length: int) -> bytes:
        """A payload that does not fit the buffer: take what is already
        buffered after ``skip`` header bytes, read the rest directly."""
        payload = bytearray(length)
        have = min(self._end - self._start - skip, length)
        begin = self._start + skip
        payload[:have] = self._buf[begin : begin + have]
        self._start = self._end = 0
        view = memoryview(payload)
        while have < length:
            got = self.sock.recv_into(view[have:])
            if not got:
                raise ConnectionClosed(
                    f"peer closed connection ({have}/{length} bytes read)"
                )
            have += got
        return bytes(payload)

    def read_frame_ex(self) -> Tuple[int, bytes, int, int]:
        """Read one complete frame; returns ``(kind, payload, flags,
        wire_payload_len)``.

        ``payload`` is the logical (decompressed) payload;
        ``wire_payload_len`` is what actually crossed the socket, for the
        byte counters.  Raises :class:`ConnectionClosed` on EOF and
        :class:`FrameError` on a header that is not ours (wrong magic,
        unknown version/flags, absurd size).
        """
        self._fill(_PREFIX.size)
        magic, version, kind = _PREFIX.unpack_from(self._buf, self._start)
        if magic != MAGIC:
            raise FrameError(f"bad magic {magic!r} (expected {MAGIC!r})")
        if version == VERSION:
            tail = _TAIL_V1
        elif version == VERSION_FLAGS:
            tail = _TAIL_V2
        else:
            raise FrameError(f"unsupported frame version {version}")
        header_size = _PREFIX.size + tail.size
        self._fill(header_size)
        fields = tail.unpack_from(self._buf, self._start + _PREFIX.size)
        flags, length = fields if version == VERSION_FLAGS else (0, fields[0])
        if kind not in _KNOWN_KINDS:
            raise FrameError(f"unknown frame kind {kind}")
        if flags & ~_KNOWN_FLAGS:
            raise FrameError(f"unknown frame flags 0x{flags:02x}")
        if length > MAX_PAYLOAD:
            raise FrameError(f"frame length {length} exceeds limit")
        total = header_size + length
        if total <= len(self._buf):
            self._fill(total)
            payload = bytes(self._view[self._start + header_size : self._start + total])
            self._start += total
        else:
            payload = self._read_large(header_size, length)
        if flags & FLAG_ZLIB:
            try:
                payload = zlib.decompress(payload)
            except zlib.error as err:
                raise FrameError(f"corrupt compressed payload: {err}") from err
            if len(payload) > MAX_PAYLOAD:
                raise FrameError(
                    f"decompressed payload of {len(payload)} bytes exceeds frame limit"
                )
        return kind, payload, flags, length


def read_frame_ex(sock) -> Tuple[int, bytes, int, int]:
    """Read one frame from a :class:`FramedSocket`, or from a bare socket
    without consuming a byte past the frame; returns ``(kind, payload,
    flags, wire_payload_len)`` as :meth:`FramedSocket.read_frame_ex`."""
    if not isinstance(sock, FramedSocket):
        sock = FramedSocket(sock, bufsize=HEADER_FLAGS_SIZE, readahead=False)
    return sock.read_frame_ex()


def read_frame(sock) -> Tuple[int, bytes]:
    """Read one complete frame; returns ``(kind, payload)``.

    Compressed frames are inflated transparently; callers that need the
    flags or on-the-wire size use :func:`read_frame_ex`.
    """
    kind, payload, _flags, _wire_len = read_frame_ex(sock)
    return kind, payload
