"""Per-peer connection pool with bounded-backoff dialling.

One pool serves every outbound call a transport makes.  Connections are
keyed by ``(host, port)``, handed out as
:class:`~repro.net.framing.FramedSocket` (the socket plus its reusable
read buffer), checked out for exactly one request/response exchange, and
returned for reuse on clean completion — shuffle fetches
and heartbeats ride long-lived sockets instead of paying a dial per
message.

Dialling retries refused/unreachable connects with exponential backoff up
to ``TransportConf.max_retries`` extra attempts: a server that has not
finished binding yet is a transient condition, but one that stays refused
is reported as :class:`ConnectFailed` for the caller to surface as
:class:`~repro.common.errors.WorkerLost`.  Errors on an *established*
connection are never retried here — a request that may already have been
delivered must not be sent twice (launching tasks is not idempotent).
"""

from __future__ import annotations

import contextlib
import random
import socket
import threading
import time
from typing import Dict, Iterator, List, Set, Tuple

from repro.chaos.injector import chaos_hit
from repro.chaos.plan import KIND_DIAL_REFUSE, SITE_NET_DIAL
from repro.common.errors import ReproError
from repro.common.metrics import (
    COUNT_NET_CONNECT_RETRIES,
    COUNT_NET_CONNECTIONS,
    COUNT_NET_RECONNECTS,
    COUNT_NET_REDIALS,
    MetricsRegistry,
)
from repro.net.framing import FramedSocket

Address = Tuple[str, int]

# Idle connections kept per peer; beyond this, returned sockets close.
_MAX_IDLE_PER_PEER = 4
# Backoff doubles per attempt but never exceeds this.
_MAX_BACKOFF_S = 0.5


class ConnectFailed(ReproError):
    """Could not establish a connection within the retry budget."""


class ConnectionPool:
    """Checkout/checkin pool of client sockets, one exchange at a time."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        connect_timeout_s: float = 1.0,
        call_timeout_s: float = 30.0,
        max_retries: int = 2,
        retry_backoff_s: float = 0.02,
    ):
        self.metrics = metrics
        self.connect_timeout_s = connect_timeout_s
        self.call_timeout_s = call_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._idle: Dict[Address, List[FramedSocket]] = {}
        self._busy: Set[FramedSocket] = set()  # checked out, mid-exchange
        # Addresses we have successfully dialled before: a later _dial to
        # one of these is a *redial* (peer crash, invalidation, or idle
        # exhaustion) and is counted separately from first contacts.
        self._dialed: Set[Address] = set()
        self._rng = random.Random()
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    def _dial(self, addr: Address) -> FramedSocket:
        delay = self.retry_backoff_s
        last_err: Exception | None = None
        with self._lock:
            if addr in self._dialed:
                self.metrics.counter(COUNT_NET_REDIALS).add(1)
        for attempt in range(self.max_retries + 1):
            try:
                if chaos_hit(SITE_NET_DIAL, target=f"{addr[0]}:{addr[1]}") is not None:
                    # KIND_DIAL_REFUSE: the only fault scheduled at this
                    # site — behave exactly like a refused connect so the
                    # retry/backoff path below is what gets exercised.
                    raise OSError(f"chaos {KIND_DIAL_REFUSE}: connection refused")
                sock = socket.create_connection(addr, timeout=self.connect_timeout_s)
            except OSError as err:
                last_err = err
                if attempt < self.max_retries:
                    self.metrics.counter(COUNT_NET_CONNECT_RETRIES).add(1)
                    if delay > 0:
                        # Jitter in [0.5, 1.5)x so concurrent redials
                        # after a server kill do not synchronize into a
                        # thundering herd against the reborn listener.
                        time.sleep(delay * (0.5 + self._rng.random()))
                    delay = min(delay * 2 if delay > 0 else 0, _MAX_BACKOFF_S)
                continue
            # Control messages are small; Nagle would batch them into the
            # exact round-trip stalls this subsystem exists to measure.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.call_timeout_s)
            self.metrics.counter(COUNT_NET_CONNECTIONS).add(1)
            with self._lock:
                if addr in self._dialed:
                    # A redial that actually *connected*: the peer (or its
                    # reborn successor) came back — the recovery signal a
                    # dashboard wants, as opposed to redial attempts.
                    self.metrics.counter(COUNT_NET_RECONNECTS).add(1)
                self._dialed.add(addr)
            return FramedSocket(sock)
        raise ConnectFailed(
            f"connect to {addr[0]}:{addr[1]} failed after "
            f"{self.max_retries + 1} attempt(s): {last_err}"
        ) from last_err

    @contextlib.contextmanager
    def connection(self, addr: Address) -> Iterator[FramedSocket]:
        """Check out one socket for one request/response exchange.

        On clean exit the socket returns to the idle pool; on any error it
        is closed (its stream position is unknown, so it must never be
        reused)."""
        with self._lock:
            if self._closed:
                raise ConnectFailed("connection pool is closed")
            idle = self._idle.get(addr)
            sock = idle.pop() if idle else None
            if sock is not None:
                self._busy.add(sock)
        if sock is None:
            sock = self._dial(addr)
            with self._lock:
                self._busy.add(sock)
        try:
            yield sock
        except BaseException:
            with self._lock:
                self._busy.discard(sock)
            sock.close()
            raise
        with self._lock:
            self._busy.discard(sock)
            if not self._closed:
                bucket = self._idle.setdefault(addr, [])
                if len(bucket) < _MAX_IDLE_PER_PEER:
                    bucket.append(sock)
                    return
        sock.close()

    def invalidate(self, addr: Address) -> None:
        """Close every idle socket to one peer.

        Used when an address is discovered stale (the peer re-announced
        elsewhere or is gone): pooled sockets to the old address must not
        be handed out again."""
        with self._lock:
            sockets = self._idle.pop(addr, [])
        for sock in sockets:
            sock.close()

    def close(self) -> None:
        """Close every idle socket, reset every exchange in flight (its
        owner sees the connection drop and closes it) and refuse further
        checkouts."""
        with self._lock:
            self._closed = True
            sockets = [s for bucket in self._idle.values() for s in bucket]
            self._idle.clear()
            busy = list(self._busy)
        for sock in sockets:
            sock.close()
        for sock in busy:
            sock.shutdown()
