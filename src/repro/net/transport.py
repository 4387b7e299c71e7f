"""TCP transport: the in-process :class:`~repro.engine.rpc.Transport`
contract over real sockets.

Topology
--------
Every participant owns one :class:`TcpTransport`, which owns one
:class:`~repro.net.server.MessageServer` (all its endpoints answer there)
and one :class:`~repro.net.pool.ConnectionPool` (all its outbound calls
dial from there).  Exactly one transport — the driver's — is the *hub*:
it holds the authoritative endpoint directory.  Worker transports are
constructed knowing only the hub's socket address; they announce their
endpoints to it on :meth:`register` and resolve peer addresses through it
on first contact (cached afterwards).  That is the whole discovery
protocol: a cluster is a driver and N workers that share nothing but one
``(host, port)`` pair.

Wire format
-----------
A call serializes ``(Envelope, args, kwargs)`` with stdlib pickle
(:func:`repro.dag.serde.dumps_data`) — the same
:class:`~repro.engine.rpc.Envelope` the in-process transport routes,
``SpanContext`` included, so traces recorded via :mod:`repro.obs`
propagate driver→wire→worker unchanged.  The response carries
``("ok", value)``, ``("err", exception)`` (re-raised caller-side), or
``("lost", reason)`` (surfaced as :class:`WorkerLost`).  Envelopes,
reports, replies and acknowledgements are data: code crosses the wire
only inside ``launch_tasks`` stage blobs (:mod:`repro.net.stageblobs`).

One-way messages
----------------
:meth:`TcpTransport.post` queues a serialized message in the destination's
*outbox*; one sender thread per destination takes everything queued,
sends it as a single ``KIND_POST`` frame, and waits for the one response
that acknowledges every message in it.  Whatever is posted while that
exchange is in flight leaves in the next frame — an idle peer sees
single-message frames with no added delay, a busy one coalesces, and no
timer or size threshold is involved.  A frame that is never acknowledged
hands each of its messages to that message's ``on_undelivered``.

Failure model
-------------
A dead peer is one whose server is gone: connection refused after the
bounded-backoff dial budget, a reset mid-exchange, or a response that
never arrives within ``call_timeout_s`` all surface as
:class:`WorkerLost` — the same exception the in-process transport raises
for a marked-dead endpoint, so the §3.3 recovery path is identical on
both backends.
"""

from __future__ import annotations

import functools
import pickle
import queue
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.injector import chaos_hit
from repro.chaos.plan import (
    KIND_NET_DELAY,
    KIND_NET_DROP,
    KIND_NET_DUPLICATE,
    SITE_NET_CALL,
    SITE_NET_FRAME,
    FaultEvent,
)
from repro.common.clock import Clock, WallClock
from repro.common.config import TransportConf
from repro.common.errors import SerializationError, WorkerLost
from repro.common.metrics import (
    COUNT_NET_BYTES_RECEIVED,
    COUNT_NET_BYTES_SENT,
    COUNT_NET_FRAMES_SENT,
    COUNT_NET_LAUNCH_BYTES_SENT,
    COUNT_RPC_MESSAGES,
    HIST_NET_CALL_LATENCY,
    HIST_NET_MESSAGES_PER_FRAME,
    MetricsRegistry,
)
from repro.dag.serde import dumps_data
from repro.engine.rpc import LAUNCH_TASKS, BaseTransport, Envelope
from repro.net.framing import (
    HEADER_SIZE,
    KIND_POST,
    KIND_REQUEST,
    KIND_RESPONSE,
    ConnectionClosed,
    FrameError,
    encode_frame,
    encode_messages,
)
from repro.net.pool import Address, ConnectFailed, ConnectionPool
from repro.net.server import MessageServer
from repro.net.stageblobs import StageBlobReceiver, StageBlobSender, WireLaunch
from repro.obs.trace import Recorder

# Directory/ping methods handled by the transport itself; they never
# touch COUNT_RPC_MESSAGES — they are plumbing, not engine messages
# (bytes counters still see them: wire truth).
ANNOUNCE = "__announce__"
RESOLVE = "__resolve__"
PING = "__ping__"
# Directory eviction for decommissioned endpoints: plumbing like
# ANNOUNCE/RESOLVE — without it the hub serves a decommissioned worker's
# stale address forever (the ISSUE 10 satellite bugfix).
EVICT = "__evict__"
# Telemetry-delta shipping (repro.obs.live), heartbeats on or off:
# plumbing like the three above, so ±0 message-count parity holds.
METRICS = "__metrics__"

_OK = "ok"
_ERR = "err"
_LOST = "lost"
# Receiver-side stage-blob cache miss: the response value lists the
# digests to re-ship.  Like discovery, the retry is plumbing — the
# renegotiated exchange still counts as one engine message.
_STAGE_MISS = "stage_miss"

# Attempts for one launch negotiation (first send + stage_miss reships).
_MAX_LAUNCH_ATTEMPTS = 3

# Methods whose request may be dropped/garbled by chaos without wedging
# the engine: every caller of these treats WorkerLost as a recoverable
# signal (retry, FetchFailed, or §3.3 recovery).  Anything else — e.g.
# notify_delivery_failed, which is itself the failure path's last resort —
# degrades to a delay instead, so chaos never manufactures a hang the
# engine has no handler for.
_CHAOS_DROP_SAFE = frozenset(
    {
        "launch_tasks",
        "fetch_buckets",
        "notify_output",
        "heartbeat",
        "task_finished",
        "pre_populate",
    }
)
# Methods that are idempotent on the receiver, so delivering the request
# twice (at-least-once semantics) is observationally safe.
_CHAOS_DUP_SAFE = frozenset(
    {
        "fetch_buckets",
        "notify_output",
        "heartbeat",
        "pre_populate",
    }
)


def _fault_effect(fault: FaultEvent, method: str) -> str:
    """What a ``net.call`` fault does to a message of ``method``: a drop
    or duplicate the method cannot absorb degrades to a delay."""
    if fault.kind == KIND_NET_DROP and method in _CHAOS_DROP_SAFE:
        return KIND_NET_DROP
    if fault.kind == KIND_NET_DUPLICATE and method in _CHAOS_DUP_SAFE:
        return KIND_NET_DUPLICATE
    return KIND_NET_DELAY


class _ConnectRefused(WorkerLost):
    """Internal marker: the failure was a refused dial, so the request was
    never delivered and a retry at a fresh address is safe."""


# Sender threads are named "<transport>-post-<destination>"; the test
# suite's leak fixture looks for the marker.
SENDER_THREAD_MARK = "-post-"
# close() waits this long for a sender to finish the on_undelivered
# handler it is in (a worker's report fallback is bounded at ~1.6 s).
_SENDER_JOIN_S = 3.0


class _Posted:
    """One queued one-way message: its wire payload plus what the sender
    needs once the frame that carried it is (or is not) acknowledged."""

    __slots__ = ("payload", "method", "on_undelivered", "posted_at")

    def __init__(
        self,
        payload: bytes,
        method: str,
        on_undelivered: Optional[Callable[[WorkerLost], None]],
        posted_at: float,
    ):
        self.payload = payload
        self.method = method
        self.on_undelivered = on_undelivered
        self.posted_at = posted_at


class _Outbox:
    """The posts to one destination, in order, and the one thread that
    sends them: it takes *everything* queued, hands it to ``send`` (one
    frame, one acknowledgement), and only then looks at the queue again.

    The queue holds :class:`_Posted` messages and, from :meth:`flush`,
    ``threading.Event`` markers: a marker is set once every message
    queued before it has been settled."""

    _STOP = object()

    def __init__(self, send: Callable[[List[_Posted]], None], thread_name: str):
        self._send = send
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._lock = threading.Lock()  # orders flush markers against close
        self.closed = False
        self._thread = threading.Thread(
            target=self._run, name=thread_name, daemon=True
        )
        self._thread.start()

    def put(self, message: _Posted) -> None:
        if not self.closed:  # a crashed sender's effects stay discarded
            self._queue.put(message)

    def flush(self) -> None:
        settled = threading.Event()
        with self._lock:
            if self.closed:
                return
            self._queue.put(settled)
        settled.wait()

    def close(self) -> None:
        """Discard what is queued, stop the sender, release any flush."""
        with self._lock:
            self.closed = True
            self._queue.put(self._STOP)
        if self._thread is not threading.current_thread():
            self._thread.join(timeout=_SENDER_JOIN_S)
        self._drain([], [])

    def _sort(self, item: Any, batch: List[_Posted], markers: List[threading.Event]) -> None:
        """One queued item: a message to send, a flush marker to set once
        the messages before it are settled, or the stop sentinel.  On a
        closed outbox messages are dropped and markers set at once."""
        if isinstance(item, _Posted):
            if not self.closed:
                batch.append(item)
        elif item is not self._STOP:
            if self.closed:
                item.set()
            else:
                markers.append(item)

    def _drain(self, batch: List[_Posted], markers: List[threading.Event]) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            self._sort(item, batch, markers)

    def _run(self) -> None:
        while not self.closed:
            batch: List[_Posted] = []
            markers: List[threading.Event] = []
            self._sort(self._queue.get(), batch, markers)
            self._drain(batch, markers)
            try:
                if batch and not self.closed:
                    self._send(batch)
            finally:
                for marker in markers:
                    marker.set()


class TcpTransport(BaseTransport):
    """Socket-backed transport; one per driver / worker process-equivalent."""

    serializes = True

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        clock: Clock | None = None,
        tracer: Recorder | None = None,
        conf: Optional[TransportConf] = None,
        hub_addr: Optional[Address] = None,
        name: str = "net",
    ):
        super().__init__(metrics, tracer)
        self._clock = clock or WallClock()
        self.conf = conf or TransportConf(backend="tcp")
        self._hub_addr = hub_addr  # None => this transport IS the hub
        self._local: Dict[str, Any] = {}
        self._dead: set = set()
        self._directory: Dict[str, Address] = {}  # authoritative on the hub
        self._addr_cache: Dict[str, Address] = {}
        self._lock = threading.Lock()
        self._outboxes: Dict[str, _Outbox] = {}  # destination -> its posts
        self._closed = False
        self._name = name
        self.pool = ConnectionPool(
            self.metrics,
            connect_timeout_s=self.conf.connect_timeout_s,
            call_timeout_s=self.conf.call_timeout_s,
            max_retries=self.conf.max_retries,
            retry_backoff_s=self.conf.retry_backoff_s,
        )
        self._stage_sender = StageBlobSender(self.metrics)
        self._stage_receiver = StageBlobReceiver()
        self.server = MessageServer(
            self._handle_raw,
            self.metrics,
            name=name,
            post_handler=self._handle_posts,
        )

    # ------------------------------------------------------------------
    # Registry API (Transport contract)
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return self.server.address

    @property
    def is_hub(self) -> bool:
        return self._hub_addr is None

    def register(self, endpoint_id: str, obj: Any) -> None:
        with self._lock:
            self._local[endpoint_id] = obj
            self._dead.discard(endpoint_id)
            if self.is_hub:
                self._directory[endpoint_id] = self.address
        if not self.is_hub:
            status, value = self._internal_call(
                self._hub_addr,
                Envelope("<hub>", ANNOUNCE, None),
                (endpoint_id, self.address[0], self.address[1]),
            )
            if status != _OK:
                raise WorkerLost(endpoint_id, f"announce to hub failed: {value}")

    def mark_dead(self, endpoint_id: str) -> None:
        """Local endpoint: crash it for real — close the server so peers
        get refused/reset.  Remote endpoint: record it dead so local
        callers fail fast without dialling."""
        with self._lock:
            self._dead.add(endpoint_id)
            self._addr_cache.pop(endpoint_id, None)
            local = endpoint_id in self._local
            all_local_dead = all(eid in self._dead for eid in self._local)
        if local and all_local_dead:
            self.close()

    def evict(self, endpoint_id: str) -> None:
        """Decommission an endpoint from discovery: the hub drops its
        directory entry (plus per-peer caches) so ``__resolve__`` stops
        serving a stale address; a non-hub transport forwards the
        eviction to the hub as uncounted plumbing."""
        self._forget_addr(endpoint_id)
        if self.is_hub:
            self._evict_entry(endpoint_id)
            return
        try:
            self._internal_call(
                self._hub_addr, Envelope("<hub>", EVICT, None), (endpoint_id,)
            )
        except WorkerLost:
            pass  # hub gone: there is no directory left to evict from

    def _evict_entry(self, endpoint_id: str) -> None:
        with self._lock:
            prior = self._directory.pop(endpoint_id, None)
            self._addr_cache.pop(endpoint_id, None)
            outbox = self._outboxes.pop(endpoint_id, None)
        if outbox is not None:
            outbox.close()  # nothing more will be posted there: stop its sender
        if prior is not None:
            self.pool.invalidate(prior)
        self._stage_sender.forget_peer(endpoint_id)

    def is_alive(self, endpoint_id: str) -> bool:
        with self._lock:
            if endpoint_id in self._dead:
                return False
            if endpoint_id in self._local:
                return True
        try:
            addr = self._resolve(endpoint_id)
            status, value = self._internal_call(
                addr, Envelope(endpoint_id, PING, None), ()
            )
        except WorkerLost:
            return False
        return status == _OK and bool(value)

    def ship_telemetry(self, dst_id: str, src_id: str, delta: Any) -> bool:
        """Deliver a telemetry delta over the wire as an uncounted
        ``__metrics__`` exchange — plumbing like ``__ping__``: no
        ``COUNT_RPC_MESSAGES``, no per-method latency histogram (bytes
        counters still see it: wire truth)."""
        try:
            addr = self._resolve(dst_id)
            status, value = self._internal_call(
                addr, Envelope(dst_id, METRICS, None), (src_id, delta)
            )
        except WorkerLost:
            return False
        return status == _OK and bool(value)

    def endpoints(self) -> Dict[str, Any]:
        with self._lock:
            return dict(self._local)

    def close(self) -> None:
        """Stop serving and sending.  Posts still queued are discarded
        without running ``on_undelivered`` — closing is the crash model,
        and a crashed machine's pending effects stay discarded."""
        with self._lock:
            self._closed = True
            outboxes = list(self._outboxes.values())
        self.server.close()
        # Closing the pool resets any exchange a sender is blocked in, so
        # the joins below do not wait on a silent peer.
        self.pool.close()
        for outbox in outboxes:
            outbox.close()

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _open_message(self, dst_id: str, method: str) -> Tuple[Address, Envelope]:
        """What a call and a post share before anything is sent: refuse a
        known-dead peer, resolve it, count one engine message, and capture
        the sender's trace context."""
        with self._lock:
            if dst_id in self._dead:
                raise WorkerLost(dst_id, "endpoint is down")
        addr = self._resolve(dst_id)
        self.metrics.counter(COUNT_RPC_MESSAGES).add(1)
        ctx = self.tracer.current() if self.tracer.enabled else None
        return addr, Envelope(dst_id, method, ctx)

    def call(self, dst_id: str, method: str, *args: Any, **kwargs: Any) -> Any:
        addr, envelope = self._open_message(dst_id, method)
        fault = chaos_hit(SITE_NET_CALL, target=dst_id, method=method)
        if fault is not None:
            self._apply_call_fault(fault, dst_id, method, addr, envelope, args, kwargs)
        start = self._clock.now()
        status, value = self._deliver(
            dst_id, addr, lambda at: self._exchange(at, envelope, args, kwargs)
        )
        self.metrics.histogram(f"{HIST_NET_CALL_LATENCY}.{method}").record(
            self._clock.now() - start
        )
        if status == _OK:
            return value
        if status == _LOST:
            self._forget_addr(dst_id)
            raise WorkerLost(dst_id, str(value))
        raise value  # _ERR: the handler's exception, re-raised caller-side

    def post(
        self,
        dst_id: str,
        method: str,
        *args: Any,
        on_undelivered: Optional[Callable[[WorkerLost], None]] = None,
        **kwargs: Any,
    ) -> None:
        """Serialize now (in the caller, with the caller's trace context),
        queue for ``dst_id``'s sender thread, return."""
        try:
            _addr, envelope = self._open_message(dst_id, method)
        except WorkerLost as err:
            if on_undelivered is not None:
                on_undelivered(err)
            return
        copies = 1
        # One draw per logical message, exactly as call() makes.
        fault = chaos_hit(SITE_NET_CALL, target=dst_id, method=method)
        if fault is not None:
            effect = _fault_effect(fault, method)
            if effect == KIND_NET_DROP:
                if on_undelivered is not None:
                    on_undelivered(
                        WorkerLost(
                            dst_id, f"chaos {fault.kind}: {method!r} message dropped"
                        )
                    )
                return
            if effect == KIND_NET_DUPLICATE:
                copies = 2
            else:
                self._clock.sleep(fault.param if fault.param > 0 else 0.02)
        payload = dumps_data((envelope, args, kwargs), context=f"rpc {method!r} payload")
        outbox = self._outboxes.get(dst_id)
        if outbox is None:
            with self._lock:
                if self._closed:
                    return
                outbox = self._outboxes.get(dst_id)
                if outbox is None:
                    outbox = self._outboxes[dst_id] = _Outbox(
                        functools.partial(self._send_posts, dst_id),
                        f"{self._name}{SENDER_THREAD_MARK}{dst_id}",
                    )
        outbox.put(_Posted(payload, method, on_undelivered, self._clock.now()))
        if copies == 2:
            # A bare copy: no handler, no latency sample.
            outbox.put(_Posted(payload, "", None, 0.0))

    def flush(self, dst_id: str) -> None:
        outbox = self._outboxes.get(dst_id)
        if outbox is not None:
            outbox.flush()

    def _send_posts(self, dst_id: str, batch: List[_Posted]) -> None:
        """Sender thread: one frame for the whole batch, one response back,
        then settle each message — a latency sample if it was taken, its
        ``on_undelivered`` if not."""
        self.metrics.histogram(HIST_NET_MESSAGES_PER_FRAME).record(len(batch))
        lost: List[Optional[str]]
        try:
            frame = self._frame(
                KIND_POST,
                encode_messages([m.payload for m in batch]),
                dst_id,
                [m.method for m in batch],
            )
            response = self._deliver(
                dst_id,
                self._resolve(dst_id),
                lambda at: self._wire_exchange(at, dst_id, frame, "a one-way frame"),
            )
            # An empty acknowledgement is the common case: every message taken.
            lost = pickle.loads(response) if response else [None] * len(batch)
            if len(lost) != len(batch):
                raise ValueError(f"{len(lost)} statuses for {len(batch)} messages")
        except WorkerLost as err:
            lost = [err.reason] * len(batch)
        except Exception as err:  # noqa: BLE001 - unbuildable frame, unreadable reply
            lost = [f"one-way frame to {dst_id} failed: {err!r}"] * len(batch)
        now = self._clock.now()
        for message, reason in zip(batch, lost):
            if reason is None:
                if message.method:
                    self.metrics.histogram(
                        f"{HIST_NET_CALL_LATENCY}.{message.method}"
                    ).record(now - message.posted_at)
            elif message.on_undelivered is not None and not self._closed:
                try:
                    message.on_undelivered(WorkerLost(dst_id, reason))
                except Exception:  # noqa: BLE001 - a handler must not kill the sender
                    pass

    def _deliver(self, dst_id: str, addr: Address, exchange: Callable[[Address], Any]) -> Any:
        """Run ``exchange(addr)`` under the stale-address policy shared by
        calls and one-way frames."""
        try:
            return exchange(addr)
        except _ConnectRefused as refused:
            # Nothing was listening at `addr` — possibly a *stale* cached
            # address for a peer that re-announced elsewhere.  A refused
            # connect delivered nothing, so one retry at a freshly
            # resolved address is safe (never for mid-exchange failures).
            fresh = self._refresh_addr(dst_id)
            if fresh is None or fresh == addr:
                with self._lock:
                    self._dead.add(dst_id)
                raise WorkerLost(dst_id, refused.reason) from refused
            try:
                return exchange(fresh)
            except WorkerLost:
                with self._lock:
                    self._dead.add(dst_id)
                self._forget_addr(dst_id)
                raise
        except WorkerLost:
            # Mid-exchange loss: the cached address may be stale too, but
            # the request may have been delivered — no retry, just make
            # sure the next caller re-resolves.
            self._forget_addr(dst_id)
            raise

    def _apply_call_fault(
        self,
        fault: FaultEvent,
        dst_id: str,
        method: str,
        addr: Address,
        envelope: Envelope,
        args: Tuple,
        kwargs: Optional[Dict],
    ) -> None:
        effect = _fault_effect(fault, method)
        if effect == KIND_NET_DROP:
            # The request never leaves this host; the caller observes the
            # same WorkerLost a vanished peer would produce.
            raise WorkerLost(dst_id, f"chaos {fault.kind}: {method!r} request dropped")
        if effect == KIND_NET_DUPLICATE:
            # Deliver once extra, discard the outcome: the real exchange
            # below is the one whose response the caller sees.
            try:
                self._exchange(addr, envelope, args, kwargs)
            except WorkerLost:
                pass
            return
        # net_delay — or a drop/duplicate degraded on an unsafe method.
        self._clock.sleep(fault.param if fault.param > 0 else 0.02)

    def _exchange(
        self, addr: Address, envelope: Envelope, args: Tuple, kwargs: Optional[Dict]
    ) -> Tuple[str, Any]:
        """One engine exchange, including any transport-internal
        renegotiation (stage-blob reships) that stays off the counters."""
        if (
            envelope.method == LAUNCH_TASKS
            and len(args) == 1
            and (not kwargs or set(kwargs) == {"driver_epoch"})
        ):
            # The HA fencing stamp (driver_epoch) is the one kwarg the
            # tokenized launch path carries through; anything else falls
            # back to the plain exchange below.
            return self._launch_exchange(addr, envelope, args[0], kwargs)
        return self._internal_call(addr, envelope, args, kwargs)

    def _launch_exchange(
        self,
        addr: Address,
        envelope: Envelope,
        descriptors: Any,
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> Tuple[str, Any]:
        """Send a launch with plans tokenized; re-ship blobs on
        ``stage_miss`` until the receiver can decode (bounded).  The
        reships are uncounted internal retries, so ``count.rpc_messages``
        sees one message per launch."""
        dst = envelope.dst
        launch_bytes = self.metrics.counter(COUNT_NET_LAUNCH_BYTES_SENT)
        force: frozenset = frozenset()
        for _attempt in range(_MAX_LAUNCH_ATTEMPTS):
            launch, digests = self._stage_sender.encode(
                dst, descriptors, force=force
            )
            status, value, sent = self._internal_call_ex(
                addr, envelope, (launch,), kwargs
            )
            launch_bytes.add(sent)
            if status == _STAGE_MISS:
                force = force | frozenset(value)
                continue
            if status == _OK:
                self._stage_sender.mark_shipped(dst, digests)
            return status, value
        return (
            _LOST,
            f"stage-blob negotiation with {dst} did not converge",
        )

    def _forget_addr(self, dst_id: str) -> None:
        """Drop a (possibly stale) cached address and its pooled sockets."""
        with self._lock:
            addr = self._addr_cache.pop(dst_id, None)
        if addr is not None:
            self.pool.invalidate(addr)

    def _refresh_addr(self, dst_id: str) -> Optional[Address]:
        """Forget any cached address for ``dst_id`` and re-resolve through
        the hub; returns the fresh address, or None if unresolvable."""
        self._forget_addr(dst_id)
        if self.is_hub:
            with self._lock:
                return self._directory.get(dst_id)
        try:
            status, value = self._internal_call(
                self._hub_addr, Envelope("<hub>", RESOLVE, None), (dst_id,)
            )
        except WorkerLost:
            return None
        if status != _OK or value is None:
            return None
        addr = (value[0], value[1])
        with self._lock:
            self._addr_cache[dst_id] = addr
        return addr

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _resolve(self, dst_id: str) -> Address:
        with self._lock:
            if dst_id in self._local:
                return self.address
            cached = self._addr_cache.get(dst_id) or self._directory.get(dst_id)
            if cached is not None:
                return cached
        if self.is_hub:
            raise WorkerLost(dst_id, "unknown endpoint")
        status, value = self._internal_call(
            self._hub_addr, Envelope("<hub>", RESOLVE, None), (dst_id,)
        )
        if status != _OK or value is None:
            raise WorkerLost(dst_id, "unknown endpoint")
        addr = (value[0], value[1])
        with self._lock:
            self._addr_cache[dst_id] = addr
        return addr

    # ------------------------------------------------------------------
    # Wire exchange (shared by engine calls and directory plumbing)
    # ------------------------------------------------------------------
    def _internal_call(
        self,
        addr: Address,
        envelope: Envelope,
        args: Tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> Tuple[str, Any]:
        status, value, _sent = self._internal_call_ex(addr, envelope, args, kwargs)
        return status, value

    def _internal_call_ex(
        self,
        addr: Address,
        envelope: Envelope,
        args: Tuple = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> Tuple[str, Any, int]:
        """Like :meth:`_internal_call` but also returns the framed request
        size actually written to the socket — the launch path uses it to
        attribute wire cost per exchange (``net.launch_bytes_sent``)."""
        payload = dumps_data(
            (envelope, args, kwargs or {}),
            context=f"rpc {envelope.method!r} payload",
        )
        dst = envelope.dst
        frame = self._frame(KIND_REQUEST, payload, dst, (envelope.method,))
        response = self._wire_exchange(addr, dst, frame, repr(envelope.method))
        status, value = pickle.loads(response)
        return status, value, len(frame)

    def _frame(self, kind: int, payload: bytes, dst: str, methods: Sequence[str]) -> bytes:
        """Frame one outgoing payload carrying ``methods``."""
        frame = encode_frame(kind, payload)
        if all(m in _CHAOS_DROP_SAFE for m in methods) and (
            chaos_hit(SITE_NET_FRAME, target=dst, method=methods[0]) is not None
        ):
            # Garble the frame HEADER (never the payload): the server's
            # framing layer rejects it and drops the connection, so the
            # caller sees a mid-exchange loss — the payload path would
            # instead decode garbage into a SerializationError response,
            # which is a programming-error signal, not a fault.
            frame = b"\x00\x00" + frame[2:]
        return frame

    def _wire_exchange(self, addr: Address, dst: str, frame: bytes, what: str) -> bytes:
        """Write one frame, read the one response frame that answers it;
        returns the response payload."""
        try:
            with self.pool.connection(addr) as sock:
                sock.sendall(frame)
                self.metrics.counter(COUNT_NET_BYTES_SENT).add(len(frame))
                self.metrics.counter(COUNT_NET_FRAMES_SENT).add(1)
                kind, response = sock.read_frame()
        except ConnectFailed as err:
            # Nothing is listening there: either the peer is gone or the
            # address is stale.  _deliver() decides — it may retry once at
            # a freshly resolved address (a refused dial delivered nothing)
            # before caching the peer dead.
            raise _ConnectRefused(dst, f"connection refused: {err}") from err
        except (ConnectionClosed, FrameError, OSError) as err:
            raise WorkerLost(dst, f"connection lost during {what}: {err}") from err
        if kind != KIND_RESPONSE:
            raise WorkerLost(dst, f"protocol violation: frame kind {kind}")
        # Byte counters are wire truth: header plus payload.
        self.metrics.counter(COUNT_NET_BYTES_RECEIVED).add(HEADER_SIZE + len(response))
        return response

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _handle_raw(self, payload: bytes) -> bytes:
        method = "<undecoded>"
        try:
            envelope, args, kwargs = pickle.loads(payload)
            method = envelope.method
            result = self._dispatch(envelope, args, kwargs)
        except BaseException as err:  # noqa: BLE001 - malformed payloads
            result = (_ERR, SerializationError(f"bad request payload: {err!r}"))
        try:
            return dumps_data(result, context="rpc response payload")
        except BaseException as err:  # noqa: BLE001 - unpicklable values
            fallback: Tuple[str, Any] = (
                _ERR,
                SerializationError(
                    f"rpc response for {method!r} cannot cross the wire: {err}"
                ),
            )
            return dumps_data(fallback, context="rpc response payload")

    def _handle_posts(self, messages: List[bytes]) -> bytes:
        """Dispatch the one-way messages of one frame in order; the reply
        acknowledges them all: per message ``None`` (taken — whatever its
        handler returned or raised stays here) or the reason it could not
        be delivered to its endpoint; empty when every message was taken."""
        acks: List[Optional[str]] = []
        for payload in messages:
            try:
                envelope, args, kwargs = pickle.loads(payload)
                status, value = self._dispatch(envelope, args, kwargs)
            except Exception:  # noqa: BLE001 - malformed: nothing to retry
                status, value = _ERR, None
            acks.append(str(value) if status == _LOST else None)
        if not any(acks):
            return b""  # every message taken: nothing to spell out
        return dumps_data(acks, context="one-way acknowledgement")

    def _dispatch(self, envelope: Envelope, args: Tuple, kwargs: Dict) -> Tuple[str, Any]:
        method = envelope.method
        if method == ANNOUNCE:
            endpoint_id, host, port = args
            with self._lock:
                prior = self._directory.get(endpoint_id)
                self._directory[endpoint_id] = (host, port)
                self._dead.discard(endpoint_id)
                self._addr_cache.pop(endpoint_id, None)
            if prior is not None and prior != (host, port):
                # Re-registration at a new address: stale pooled sockets
                # must not serve it, and its blob cache is gone with it.
                self.pool.invalidate(prior)
                self._stage_sender.forget_peer(endpoint_id)
            return (_OK, None)
        if method == RESOLVE:
            (endpoint_id,) = args
            with self._lock:
                if endpoint_id in self._dead:
                    return (_OK, None)
                addr = self._directory.get(endpoint_id)
            return (_OK, None if addr is None else (addr[0], addr[1]))
        if method == EVICT:
            (endpoint_id,) = args
            self._evict_entry(endpoint_id)
            return (_OK, None)
        if method == PING:
            with self._lock:
                alive = (
                    envelope.dst in self._local and envelope.dst not in self._dead
                )
            return (_OK, alive)
        if method == METRICS:
            src_id, delta = args
            with self._lock:
                target = (
                    self._local.get(envelope.dst)
                    if envelope.dst not in self._dead
                    else None
                )
            ingest = getattr(target, "ingest_telemetry", None)
            if ingest is None:
                return (_OK, False)
            try:
                return (_OK, bool(ingest(src_id, delta)))
            except Exception:  # noqa: BLE001 - telemetry must never break the engine
                return (_OK, False)
        with self._lock:
            if envelope.dst not in self._local:
                return (_LOST, f"unknown endpoint: {envelope.dst}")
            if envelope.dst in self._dead:
                return (_LOST, f"endpoint is down: {envelope.dst}")
            target = self._local[envelope.dst]
        if method == LAUNCH_TASKS and args and isinstance(args[0], WireLaunch):
            descriptors, missing = self._stage_receiver.decode(args[0])
            if missing:
                return (_STAGE_MISS, missing)
            args = (descriptors,) + args[1:]
        try:
            if self.tracer.enabled and envelope.trace_ctx is not None:
                with self.tracer.activate(envelope.trace_ctx):
                    return (_OK, getattr(target, method)(*args, **kwargs))
            return (_OK, getattr(target, method)(*args, **kwargs))
        except BaseException as err:  # noqa: BLE001 - handlers may raise anything
            return (_ERR, err)
