"""Message transport between the driver and workers.

All cross-node communication in the engine flows through
:meth:`BaseTransport.call` (request/response) or :meth:`BaseTransport.post`
(one-way) so that (a) every message is counted — the RPC
amortization claims of §3.1 are observable as message counts, and (b) a
dead endpoint behaves like a crashed machine: calls to it raise
:class:`WorkerLost`.

Two implementations exist behind the same API (selected by
``TransportConf.backend``):

* :class:`Transport` (here) — the in-process registry + router: a call is
  a Python method call plus accounting.
* :class:`repro.net.transport.TcpTransport` — the same contract over real
  loopback sockets, with the :class:`Envelope` as the literal wire format.

When tracing is enabled, every message is wrapped in an
:class:`Envelope` carrying the sender's current span context, which is
re-activated on the receiving side — that is how a trace started on the
driver continues through worker-side handlers, and how it survives the
move to the tcp transport, where the envelope is what goes on the wire.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.errors import WorkerLost
from repro.common.metrics import COUNT_RPC_MESSAGES, MetricsRegistry
from repro.obs.trace import NULL_RECORDER, Recorder, SpanContext

# Method names with transport-level significance.  A transport may
# rewrite the *payload* of these calls (e.g. the tcp transport replaces
# launch_tasks plans with content-addressed stage-blob tokens, see
# repro.net.stageblobs) but must deliver semantically identical
# arguments to the endpoint and count exactly one engine message per
# call() — internal renegotiation round trips are plumbing, like
# discovery, and never touch COUNT_RPC_MESSAGES.
LAUNCH_TASKS = "launch_tasks"
FETCH_BUCKETS = "fetch_buckets"


@dataclass(frozen=True)
class Envelope:
    """One routed message: destination, method, and the trace context the
    sender was in when it sent (None when tracing is disabled)."""

    dst: str
    method: str
    trace_ctx: Optional[SpanContext]


class BaseTransport:
    """Contract shared by the in-process and tcp transports: endpoint
    registry, failure surface (:class:`WorkerLost`) and message
    accounting."""

    # True when a call's arguments and reply cross as bytes, so the
    # receiver holds copies built by the thread that decoded them.
    serializes = False

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Recorder | None = None,
    ):
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_RECORDER

    def register(self, endpoint_id: str, obj: Any) -> None:
        raise NotImplementedError

    def mark_dead(self, endpoint_id: str) -> None:
        raise NotImplementedError

    def is_alive(self, endpoint_id: str) -> bool:
        raise NotImplementedError

    def call(self, dst_id: str, method: str, *args: Any, **kwargs: Any) -> Any:
        raise NotImplementedError

    def try_call(self, dst_id: str, method: str, *args: Any, **kwargs: Any) -> bool:
        """Best-effort delivery (used for notifications): swallow
        :class:`WorkerLost`, return whether the message was delivered."""
        try:
            self.call(dst_id, method, *args, **kwargs)
            return True
        except WorkerLost:
            return False

    def post(
        self,
        dst_id: str,
        method: str,
        *args: Any,
        on_undelivered: Optional[Callable[[WorkerLost], None]] = None,
        **kwargs: Any,
    ) -> None:
        """Send one *one-way* engine message: nothing comes back — not the
        handler's return value, not an exception it raises (a refusal such
        as :class:`StaleDriverEpoch` stays on the receiver).

        The message counts as one ``COUNT_RPC_MESSAGES`` when posted and
        is delivered after every earlier post to the same destination.
        A transport may return before delivery and carry several posts to
        one destination in a single frame; :meth:`flush` waits for them.
        When the message cannot be delivered (unknown or dead endpoint, a
        frame that is never acknowledged) ``on_undelivered(err)`` runs on
        the sender side — in the caller, or on the transport's sender
        thread for that destination.  An unacknowledged frame may still
        have been delivered, so whatever the handler retries must be
        idempotent on the receiver.  A message that cannot be serialized
        raises :class:`SerializationError` here, in the caller."""
        raise NotImplementedError

    def flush(self, dst_id: str) -> None:
        """Block until everything posted to ``dst_id`` so far has been
        acknowledged or handed to its ``on_undelivered``.  A transport
        that delivers posts synchronously has nothing to wait for."""

    def ship_telemetry(self, dst_id: str, src_id: str, delta: Any) -> bool:
        """Deliver a telemetry delta to ``dst_id`` as *plumbing*: like
        discovery (``__announce__``/``__ping__``), this never touches
        ``COUNT_RPC_MESSAGES``, so arming telemetry preserves the ±0
        message-count parity between transports.  Best-effort: returns
        whether the delta was taken."""
        return False

    def evict(self, endpoint_id: str) -> None:
        """Remove a decommissioned endpoint from the discovery directory so
        ``__resolve__`` stops serving its stale address.  The in-process
        transport has no directory; the tcp transport overrides this."""

    def close(self) -> None:
        """Release transport resources (sockets, pools); no-op in-process."""


class Transport(BaseTransport):
    """Registry + router for in-process endpoints."""

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Recorder | None = None,
    ):
        super().__init__(metrics, tracer)
        self._endpoints: Dict[str, Any] = {}
        self._dead: set = set()
        self._lock = threading.Lock()

    def register(self, endpoint_id: str, obj: Any) -> None:
        with self._lock:
            self._endpoints[endpoint_id] = obj
            self._dead.discard(endpoint_id)

    def mark_dead(self, endpoint_id: str) -> None:
        """Simulate a machine crash: the endpoint stays registered but all
        traffic to it fails from now on."""
        with self._lock:
            self._dead.add(endpoint_id)

    def is_alive(self, endpoint_id: str) -> bool:
        with self._lock:
            return endpoint_id in self._endpoints and endpoint_id not in self._dead

    def endpoints(self) -> Dict[str, Any]:
        with self._lock:
            return dict(self._endpoints)

    def ship_telemetry(self, dst_id: str, src_id: str, delta: Any) -> bool:
        with self._lock:
            if dst_id not in self._endpoints or dst_id in self._dead:
                return False
            target = self._endpoints[dst_id]
        ingest = getattr(target, "ingest_telemetry", None)
        if ingest is None:
            return False
        try:
            return bool(ingest(src_id, delta))
        except Exception:  # noqa: BLE001 - telemetry must never break the engine
            return False

    def call(self, dst_id: str, method: str, *args: Any, **kwargs: Any) -> Any:
        """Deliver one message; returns the method's return value."""
        with self._lock:
            if dst_id not in self._endpoints:
                raise WorkerLost(dst_id, "unknown endpoint")
            if dst_id in self._dead:
                raise WorkerLost(dst_id, "endpoint is down")
            target = self._endpoints[dst_id]
        self.metrics.counter(COUNT_RPC_MESSAGES).add(1)
        if not self.tracer.enabled:
            return getattr(target, method)(*args, **kwargs)
        envelope = Envelope(dst_id, method, self.tracer.current())
        return self._deliver(envelope, target, args, kwargs)

    def post(
        self,
        dst_id: str,
        method: str,
        *args: Any,
        on_undelivered: Optional[Callable[[WorkerLost], None]] = None,
        **kwargs: Any,
    ) -> None:
        """Deliver synchronously in the calling thread (so the inline
        executor stays deterministic and counts match the tcp transport):
        a :meth:`call` whose reply and handler errors are dropped."""
        try:
            self.call(dst_id, method, *args, **kwargs)
        except WorkerLost as err:
            if on_undelivered is not None:
                on_undelivered(err)
        except Exception:  # noqa: BLE001 - one-way: refusals stay on the receiver
            pass

    def _deliver(
        self, envelope: Envelope, target: Any, args: Tuple, kwargs: Dict[str, Any]
    ) -> Any:
        """Dispatch with the envelope's trace context re-established on
        the receiving side (trace propagation through RPC)."""
        with self.tracer.activate(envelope.trace_ctx):
            return getattr(target, envelope.method)(*args, **kwargs)
