"""Socket server: accepts framed requests and dispatches to a handler.

One :class:`MessageServer` fronts one transport (and therefore every
endpoint registered on it).  The threading model is deliberately simple —
an accept loop plus one daemon thread per connection, each handling one
request at a time in arrival order — because peers open as many pooled
connections as they have concurrent calls in flight; concurrency comes
from the pool, not from per-connection multiplexing.

A ``KIND_POST`` frame carries several one-way messages: ``post_handler``
receives them as a list, dispatches them in order, and its return value
is the single response that acknowledges the whole frame.

Closing the server is the wire-level crash model: the listener and every
active connection are torn down, so peers observe connection refused /
reset — exactly what :class:`~repro.common.errors.WorkerLost` detection
(§3.3) keys off.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import weakref
from typing import Callable, List, Optional, Set, Tuple

from repro.chaos.injector import chaos_hit
from repro.chaos.plan import KIND_SERVER_KILL, SITE_NET_SERVE
from repro.common.metrics import (
    COUNT_NET_BYTES_RECEIVED,
    COUNT_NET_BYTES_SENT,
    MetricsRegistry,
)
from repro.net.framing import (
    HEADER_SIZE,
    KIND_POST,
    KIND_REQUEST,
    KIND_RESPONSE,
    ConnectionClosed,
    FramedSocket,
    FrameError,
    decode_messages,
    encode_frame,
)

# Every open server, for leak detection: tests assert that no server
# outlives its cluster (see the autouse fixture in tests/conftest.py).
_LIVE_SERVERS: "weakref.WeakSet[MessageServer]" = weakref.WeakSet()


def live_servers() -> List["MessageServer"]:
    """Servers that have been opened and not yet closed (leak check)."""
    return [s for s in _LIVE_SERVERS if not s.closed]


class MessageServer:
    """Listener + per-connection dispatch threads for one transport."""

    def __init__(
        self,
        handler: Callable[[bytes], bytes],
        metrics: MetricsRegistry,
        host: str = "127.0.0.1",
        name: str = "net",
        post_handler: Optional[Callable[[List[bytes]], bytes]] = None,
    ):
        self._handler = handler
        self._post_handler = post_handler
        self.metrics = metrics
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(128)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._conns: Set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closed = False
        self._conn_seq = 0
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"{name}-accept", daemon=True
        )
        self._name = name
        _LIVE_SERVERS.add(self)
        self._accept_thread.start()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    with contextlib.suppress(OSError):
                        conn.close()
                    return
                self._conns.add(conn)
                self._conn_seq += 1
                seq = self._conn_seq
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"{self._name}-conn-{seq}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        framed = FramedSocket(conn)
        try:
            while True:
                try:
                    kind, payload = framed.read_frame()
                    if kind == KIND_REQUEST:
                        handle, request = self._handler, payload
                    elif kind == KIND_POST and self._post_handler is not None:
                        handle, request = self._post_handler, decode_messages(payload)
                    else:
                        return  # protocol violation; drop the connection
                except (ConnectionClosed, FrameError, OSError):
                    return
                # Byte counters are wire truth: header plus payload.
                self.metrics.counter(COUNT_NET_BYTES_RECEIVED).add(
                    HEADER_SIZE + len(payload)
                )
                if self._name != "driver":
                    # The driver's server is exempt: killing it ends the
                    # run rather than exercising §3.3 recovery.
                    fault = chaos_hit(SITE_NET_SERVE, target=self._name)
                    if fault is not None:
                        if fault.kind == KIND_SERVER_KILL:
                            self.close()
                            return
                        # KIND_RESPONSE_DROP: the handler never runs, the
                        # caller sees its connection reset mid-exchange.
                        return
                frame = encode_frame(KIND_RESPONSE, handle(request))
                try:
                    conn.sendall(frame)
                except OSError:
                    return
                self.metrics.counter(COUNT_NET_BYTES_SENT).add(len(frame))
        finally:
            with self._lock:
                self._conns.discard(conn)
            with contextlib.suppress(OSError):
                conn.close()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down the listener and every active connection (the crash
        model: peers see refused/reset from now on)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns)
        # shutdown() before close(): while the accept thread is blocked
        # inside accept(), close() alone only drops the fd-table entry —
        # the kernel socket keeps listening until the syscall returns, so
        # peers could still connect (and then hang) during that window.
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
        self._accept_thread.join(timeout=1.0)
