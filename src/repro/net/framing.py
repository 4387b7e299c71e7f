"""Length-prefixed binary framing for the tcp transport.

Every message on a :mod:`repro.net` socket is one *frame* with one
header layout:

====== ====== ===========================================================
offset size   field
====== ====== ===========================================================
0      2      magic ``b"RN"``
2      1      protocol version (1)
3      1      frame kind: 1 = request, 2 = response, 3 = one-way messages
4      4      payload length, unsigned big-endian
8      n      payload (closure-pickled, :mod:`repro.dag.serde`)
====== ====== ===========================================================

The header is versioned so a wire change is detected instead of
misparsed; a magic/version mismatch raises :class:`FrameError`
immediately rather than desynchronizing the stream.  Payload size is
bounded (1 GiB) purely as a corruption guard — a garbled length field
otherwise reads as a multi-terabyte allocation.

A kind-3 frame carries *several* one-way messages (see
:meth:`repro.engine.rpc.BaseTransport.post`): its payload is each
message's own payload behind a 4-byte big-endian length, back to back
(:func:`encode_messages` / :func:`decode_messages`).  The receiver
dispatches them in order and answers the whole frame with one response.

Sockets that carry many frames are read through a :class:`FramedSocket`,
which keeps one reusable buffer per connection so a small frame costs one
``recv`` instead of two.
"""

from __future__ import annotations

import socket
import struct
from typing import List, Sequence, Tuple, Union

from repro.common.errors import ReproError

MAGIC = b"RN"
VERSION = 1
KIND_REQUEST = 1
KIND_RESPONSE = 2
KIND_POST = 3  # several one-way messages, acknowledged by one response
_KNOWN_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_POST)

HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = HEADER.size  # 8 bytes
# Length prefix of each message inside a KIND_POST payload.
_MESSAGE_LEN = struct.Struct(">I")

MAX_PAYLOAD = 1 << 30

# Per-connection read buffer: frames up to this size (every control
# message, most launches and small fetch replies) arrive in one recv; a
# larger payload is read straight into its own buffer instead.
READ_BUFFER_SIZE = 16 * 1024


class FrameError(ReproError):
    """The byte stream does not parse as a repro.net frame."""


class ConnectionClosed(ReproError):
    """The peer closed the connection (EOF) at a frame boundary or
    mid-frame."""


def encode_frame(kind: int, payload: bytes) -> bytes:
    """Build one wire frame: versioned header + payload."""
    if len(payload) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(payload)} bytes exceeds frame limit")
    return HEADER.pack(MAGIC, VERSION, kind, len(payload)) + payload


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
    for the next :meth:`read_frame`.

    ``readahead=False`` never reads past the frame being parsed — for a
    one-shot read from a socket whose later bytes belong to someone else
    (the module-level :func:`read_frame`).
    """

    def __init__(
        self,
        sock: socket.socket,
        bufsize: int = READ_BUFFER_SIZE,
        readahead: bool = True,
    ):
        self.sock = sock
        self._buf = bytearray(max(bufsize, HEADER_SIZE))
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

    def _read_large(self, length: int) -> bytearray:
        """A payload that does not fit the buffer: take what is already
        buffered after the header, read the rest directly into the
        payload, and hand that buffer over as it is — a copy to ``bytes``
        would hold the payload twice."""
        payload = bytearray(length)
        have = min(self._end - self._start - HEADER_SIZE, length)
        begin = self._start + HEADER_SIZE
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
        return payload

    def read_frame(self) -> Tuple[int, Union[bytes, bytearray]]:
        """Read one complete frame; returns ``(kind, payload)``.  A payload
        larger than the read buffer comes back as the ``bytearray`` it was
        received into; every consumer takes either.

        Raises :class:`ConnectionClosed` on EOF and :class:`FrameError`
        on a header that is not ours (wrong magic, unknown version or
        kind, absurd size).
        """
        self._fill(HEADER_SIZE)
        magic, version, kind, length = HEADER.unpack_from(self._buf, self._start)
        if magic != MAGIC:
            raise FrameError(f"bad magic {magic!r} (expected {MAGIC!r})")
        if version != VERSION:
            raise FrameError(f"unsupported frame version {version}")
        if kind not in _KNOWN_KINDS:
            raise FrameError(f"unknown frame kind {kind}")
        if length > MAX_PAYLOAD:
            raise FrameError(f"frame length {length} exceeds limit")
        total = HEADER_SIZE + length
        if total <= len(self._buf):
            self._fill(total)
            payload = bytes(self._view[self._start + HEADER_SIZE : self._start + total])
            self._start += total
        else:
            payload = self._read_large(length)
        return kind, payload


def read_frame(sock) -> Tuple[int, Union[bytes, bytearray]]:
    """Read one frame from a :class:`FramedSocket`, or from a bare socket
    without consuming a byte past the frame; returns ``(kind, payload)``."""
    if not isinstance(sock, FramedSocket):
        sock = FramedSocket(sock, bufsize=HEADER_SIZE, readahead=False)
    return sock.read_frame()
