"""Unit and integration tests for repro.net: framing, connection pool,
message server, and the TcpTransport against the Transport contract —
discovery via the hub, WorkerLost on refused/reset/timeout, exception
propagation, wire metrics, and trace-context activation."""

import pickle
import socket
import struct
import threading
import time
import zlib

import pytest

from repro.common.config import EngineConf, TransportConf
from repro.common.errors import (
    ConfigError,
    FetchFailed,
    TaskError,
    WorkerLost,
)
from repro.common.metrics import (
    COUNT_NET_BYTES_RECEIVED,
    COUNT_NET_BYTES_SENT,
    COUNT_NET_CONNECT_RETRIES,
    COUNT_NET_CONNECTIONS,
    COUNT_RPC_MESSAGES,
    HIST_NET_CALL_LATENCY,
    MetricsRegistry,
)
from repro.net import (
    ConnectFailed,
    ConnectionClosed,
    ConnectionPool,
    FrameError,
    MessageServer,
    TcpTransport,
    encode_frame,
    read_frame,
)
from repro.net.framing import (
    HEADER,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAGIC,
    VERSION,
)

# Golden wire fixtures.  These byte strings are the protocol contract:
# if one changes, old and new binaries stop interoperating.
# Version-1 request: magic, version=1, kind=request, length.
GOLDEN_V1_REQUEST = b"RN\x01\x01\x00\x00\x00\x04ping"
# A version-2 frame as older releases emitted it when they compressed:
# magic, version=2, kind=request, a flags byte, length, payload.  No
# peer emits it any more; it must be rejected, never misparsed.
_V2_BODY = zlib.compress(b"ping", 1)
GOLDEN_V2_ZLIB_REQUEST = (
    b"RN\x02\x01\x01" + struct.pack(">I", len(_V2_BODY)) + _V2_BODY
)


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def _socketpair_exchange(self, frame: bytes):
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            return read_frame(b)
        finally:
            a.close()
            b.close()

    def test_roundtrip(self):
        kind, payload = self._socketpair_exchange(
            encode_frame(KIND_REQUEST, b"hello wire")
        )
        assert (kind, payload) == (KIND_REQUEST, b"hello wire")

    def test_empty_payload_roundtrip(self):
        kind, payload = self._socketpair_exchange(encode_frame(KIND_RESPONSE, b""))
        assert (kind, payload) == (KIND_RESPONSE, b"")

    def test_bad_magic_rejected(self):
        frame = HEADER.pack(b"XX", VERSION, KIND_REQUEST, 0)
        with pytest.raises(FrameError, match="magic"):
            self._socketpair_exchange(frame)

    def test_unknown_version_rejected(self):
        frame = HEADER.pack(MAGIC, 99, KIND_REQUEST, 0)
        with pytest.raises(FrameError, match="version"):
            self._socketpair_exchange(frame)

    def test_version_2_header_rejected(self):
        # The flagged header older releases used for compressed frames is
        # an unknown version now (flag bit clear: see test_net_dataplane's
        # test_mixed_versions_on_one_connection).
        with pytest.raises(FrameError, match="unsupported frame version 2"):
            self._socketpair_exchange(GOLDEN_V2_ZLIB_REQUEST)

    def test_unknown_kind_rejected(self):
        frame = HEADER.pack(MAGIC, VERSION, 7, 0)
        with pytest.raises(FrameError, match="kind"):
            self._socketpair_exchange(frame)

    def test_payload_larger_than_read_buffer(self):
        from repro.net.framing import READ_BUFFER_SIZE, FramedSocket

        big = bytes(range(256)) * (READ_BUFFER_SIZE // 64)
        frames = [b"head", big, b"tail"]
        a, b = socket.socketpair()
        try:
            wire = b"".join(encode_frame(KIND_REQUEST, p) for p in frames)
            sender = threading.Thread(target=a.sendall, args=(wire,))
            sender.start()
            framed = FramedSocket(b)
            assert [framed.read_frame()[1] for _ in frames] == frames
            sender.join()
        finally:
            a.close()
            b.close()

    def test_large_payload_is_received_without_a_copy(self):
        import tracemalloc

        from repro.net.framing import FramedSocket

        payload = bytes(range(256)) * 4096  # 1 MiB
        wire = encode_frame(KIND_REQUEST, payload)
        a, b = socket.socketpair()
        try:
            framed = FramedSocket(b)
            sender = threading.Thread(target=a.sendall, args=(wire,))
            tracemalloc.start()
            try:
                sender.start()
                kind, got = framed.read_frame()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            sender.join()
        finally:
            a.close()
            b.close()
        assert (kind, got) == (KIND_REQUEST, payload)
        # The received buffer is the payload; a copy to bytes made it 2x.
        assert peak < 1.5 * len(payload), peak

    def test_truncated_stream_is_connection_closed(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame(KIND_REQUEST, b"0123456789")[:12])
            a.close()
            with pytest.raises(ConnectionClosed):
                read_frame(b)
        finally:
            b.close()

    def test_oversized_payload_rejected_at_encode(self):
        from repro.net.framing import MAX_PAYLOAD

        class FakeLen(bytes):
            def __len__(self):
                return MAX_PAYLOAD + 1

        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(KIND_REQUEST, FakeLen())


# ----------------------------------------------------------------------
# Conf
# ----------------------------------------------------------------------
class TestTransportConf:
    def test_defaults_validate(self):
        TransportConf().validate()

    def test_bad_backend_rejected(self):
        with pytest.raises(ConfigError, match="tcp"):
            TransportConf(backend="carrier-pigeon").validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"connect_timeout_s": 0},
            {"call_timeout_s": -1},
            {"max_retries": -1},
            {"retry_backoff_s": -0.1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TransportConf(**kwargs).validate()

    def test_engine_conf_roundtrip_carries_transport_knobs(self):
        conf = EngineConf(
            transport=TransportConf(
                backend="tcp",
                connect_timeout_s=0.5,
                call_timeout_s=7.0,
                max_retries=5,
                retry_backoff_s=0.001,
            )
        )
        data = conf.to_dict()
        assert data["transport"]["backend"] == "tcp"
        assert data["transport"]["max_retries"] == 5
        assert EngineConf.from_dict(data) == conf

    def test_env_override_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        assert TransportConf().backend == "tcp"
        monkeypatch.delenv("REPRO_TRANSPORT")
        assert TransportConf().backend == "inproc"


# ----------------------------------------------------------------------
# Pool + server
# ----------------------------------------------------------------------
def _echo_server(metrics):
    return MessageServer(lambda payload: payload, metrics, name="echo")


def _echo_upper(payload: bytes) -> bytes:
    return payload.upper()


@pytest.fixture
def upper_server():
    server = MessageServer(_echo_upper, MetricsRegistry(), name="upper")
    yield server
    server.close()


def _dial(server) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5.0)
    sock.settimeout(5.0)
    return sock


class TestPoolAndServer:
    def test_connection_reused_across_exchanges(self):
        metrics = MetricsRegistry()
        server = _echo_server(metrics)
        pool = ConnectionPool(metrics)
        try:
            for i in range(5):
                with pool.connection(server.address) as sock:
                    sock.sendall(encode_frame(KIND_REQUEST, b"x%d" % i))
                    kind, payload = read_frame(sock)
                    assert (kind, payload) == (KIND_RESPONSE, b"x%d" % i)
            assert metrics.counter(COUNT_NET_CONNECTIONS).value == 1
        finally:
            pool.close()
            server.close()

    def test_connect_retries_counted_then_connect_failed(self):
        metrics = MetricsRegistry()
        # Grab a port and close it so nothing is listening there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()
        probe.close()
        pool = ConnectionPool(metrics, max_retries=2, retry_backoff_s=0.001)
        with pytest.raises(ConnectFailed, match="3 attempt"):
            with pool.connection(addr):
                pass
        assert metrics.counter(COUNT_NET_CONNECT_RETRIES).value == 2

    def test_errored_connection_not_returned_to_pool(self):
        metrics = MetricsRegistry()
        server = _echo_server(metrics)
        pool = ConnectionPool(metrics)
        try:
            with pytest.raises(RuntimeError):
                with pool.connection(server.address):
                    raise RuntimeError("mid-exchange failure")
            with pool.connection(server.address) as sock:
                sock.sendall(encode_frame(KIND_REQUEST, b"fresh"))
                assert read_frame(sock)[1] == b"fresh"
            # The errored socket was closed, so a second dial happened.
            assert metrics.counter(COUNT_NET_CONNECTIONS).value == 2
        finally:
            pool.close()
            server.close()

    def test_closed_pool_refuses_checkout(self):
        pool = ConnectionPool(MetricsRegistry())
        pool.close()
        with pytest.raises(ConnectFailed, match="closed"):
            with pool.connection(("127.0.0.1", 1)):
                pass

    def test_server_close_is_idempotent_and_marks_closed(self):
        metrics = MetricsRegistry()
        server = _echo_server(metrics)
        assert not server.closed
        server.close()
        server.close()
        assert server.closed

    def test_golden_v1_fixture_matches_encoder(self):
        assert encode_frame(KIND_REQUEST, b"ping") == GOLDEN_V1_REQUEST

    def test_v1_request_through_server(self, upper_server):
        with _dial(upper_server) as sock:
            sock.sendall(GOLDEN_V1_REQUEST)
            kind, payload = read_frame(sock)
        assert (kind, payload) == (KIND_RESPONSE, b"PING")

    def test_v1_response_bytes_are_flagless(self, upper_server):
        # The reply must be byte-identical to the v1
        # protocol — magic, version=1, kind=response, length, payload.
        with _dial(upper_server) as sock:
            sock.sendall(GOLDEN_V1_REQUEST)
            raw = b""
            while len(raw) < 12:
                raw += sock.recv(12 - len(raw))
        assert raw == b"RN\x01\x02\x00\x00\x00\x04PING"

    def test_v2_compressed_request_through_server(self):
        # A peer that still sends the old flagged header gets no answer:
        # the server drops the connection without running the handler.
        calls = []
        server = MessageServer(calls.append, MetricsRegistry(), name="v2")
        try:
            with _dial(server) as sock:
                sock.sendall(GOLDEN_V2_ZLIB_REQUEST)
                try:
                    assert sock.recv(1) == b""
                except ConnectionResetError:
                    pass
            assert calls == []
        finally:
            server.close()

    def test_bad_magic_drops_connection(self, upper_server):
        with _dial(upper_server) as sock:
            sock.sendall(b"XX" + GOLDEN_V1_REQUEST[2:])
            # The server closes without reading the payload, so the peer
            # sees either EOF or (unread bytes pending) a reset.
            try:
                assert sock.recv(1) == b""
            except ConnectionResetError:
                pass

    def test_close_refuses_new_connections(self):
        server = _echo_server(MetricsRegistry())
        address = server.address
        server.close()
        assert server.closed
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=1.0)

    def test_close_resets_open_connections(self):
        server = _echo_server(MetricsRegistry())
        sock = _dial(server)
        try:
            sock.sendall(encode_frame(KIND_REQUEST, b"x"))
            read_frame(sock)
            server.close()
            # The peer observes EOF/reset — the WorkerLost crash model.
            with pytest.raises(ConnectionError):
                sock.sendall(encode_frame(KIND_REQUEST, b"y"))
                while True:
                    if sock.recv(4096) == b"":
                        raise ConnectionError("peer closed")
        finally:
            sock.close()
            server.close()


# ----------------------------------------------------------------------
# TcpTransport
# ----------------------------------------------------------------------
class _Endpoint:
    """A handler object with a few representative methods."""

    def __init__(self):
        self.kwargs_seen = None

    def add(self, a, b):
        return a + b

    def with_kwargs(self, a, *, scale=1):
        self.kwargs_seen = scale
        return a * scale

    def boom(self):
        raise ValueError("user-level failure")

    def unpicklable(self):
        return threading.Lock()

    def slow(self, delay):
        time.sleep(delay)
        return "done"


def _fast_conf(**kwargs):
    kwargs.setdefault("backend", "tcp")
    kwargs.setdefault("max_retries", 1)
    kwargs.setdefault("retry_backoff_s", 0.001)
    return TransportConf(**kwargs)


@pytest.fixture
def hub():
    transport = TcpTransport(MetricsRegistry(), conf=_fast_conf(), name="hub")
    yield transport
    transport.close()


@pytest.fixture
def peer(hub):
    transport = TcpTransport(
        MetricsRegistry(), conf=_fast_conf(), hub_addr=hub.address, name="peer"
    )
    yield transport
    transport.close()


class TestTcpTransport:
    def test_hub_local_call(self, hub):
        hub.register("svc", _Endpoint())
        assert hub.call("svc", "add", 2, 3) == 5

    def test_cross_transport_call_via_hub_discovery(self, hub, peer):
        hub.register("driver", _Endpoint())
        peer.register("worker", _Endpoint())
        # peer -> hub-registered endpoint, and hub -> peer-registered one.
        assert peer.call("driver", "add", 1, 1) == 2
        assert hub.call("worker", "add", 20, 3) == 23

    def test_kwargs_cross_the_wire(self, hub, peer):
        endpoint = _Endpoint()
        peer.register("worker", endpoint)
        assert hub.call("worker", "with_kwargs", 6, scale=7) == 42
        assert endpoint.kwargs_seen == 7

    def test_handler_exception_reraised_at_caller(self, hub, peer):
        peer.register("worker", _Endpoint())
        with pytest.raises(ValueError, match="user-level failure"):
            hub.call("worker", "boom")

    def test_unknown_endpoint_is_worker_lost(self, hub):
        with pytest.raises(WorkerLost, match="unknown"):
            hub.call("ghost", "add", 1, 2)

    def test_unpicklable_response_surfaces_not_hangs(self, hub, peer):
        from repro.common.errors import SerializationError

        peer.register("worker", _Endpoint())
        with pytest.raises(SerializationError, match="unpicklable"):
            hub.call("worker", "unpicklable")

    def test_unpicklable_argument_names_the_rpc_payload(self, hub, peer):
        """The error names what was being sent and a remedy that holds on
        every path — not the process executor or its thread fallback."""
        from repro.common.errors import SerializationError

        peer.register("worker", _Endpoint())
        with pytest.raises(SerializationError) as exc:
            hub.call("worker", "add", threading.Lock(), 1)
        text = str(exc.value)
        assert text.startswith("cannot serialize rpc 'add' payload: ")
        assert "lock" in text
        assert "process executor" not in text
        assert "thread backend" not in text
        assert "create handles (locks, files, sockets) inside the function body" in text

    def test_peer_server_death_is_worker_lost_and_cached(self, hub, peer):
        peer.register("worker", _Endpoint())
        assert hub.call("worker", "add", 1, 1) == 2
        peer.close()  # crash model: refused / reset from now on
        # Every call now raises WorkerLost.  The first hits the stale
        # pooled socket (reset); a kernel race can let one or two more
        # dials connect before the listener fully dies, but within a few
        # attempts the refusal is cached and callers fail fast.
        reasons = []
        for _ in range(10):
            with pytest.raises(WorkerLost) as excinfo:
                hub.call("worker", "add", 1, 1)
            reasons.append(str(excinfo.value))
            if "down" in reasons[-1]:
                break
        assert any("down" in r for r in reasons), reasons
        # Once cached dead, no further dial budget is spent.
        before = hub.metrics.counter(COUNT_NET_CONNECT_RETRIES).value
        with pytest.raises(WorkerLost, match="down"):
            hub.call("worker", "add", 1, 1)
        assert hub.metrics.counter(COUNT_NET_CONNECT_RETRIES).value == before

    def test_evicted_endpoint_is_forgotten_by_the_hub(self, hub, peer):
        """Decommission regression (ISSUE 10 satellite): without eviction
        the hub's directory serves a decommissioned worker's stale address
        forever.  Eviction is plumbing — it must not count as an engine
        message."""
        peer.register("worker", _Endpoint())
        assert hub.call("worker", "add", 1, 1) == 2
        before = hub.metrics.counter(COUNT_RPC_MESSAGES).value
        hub.evict("worker")
        assert hub.metrics.counter(COUNT_RPC_MESSAGES).value == before
        with pytest.raises(WorkerLost, match="unknown"):
            hub.call("worker", "add", 1, 1)

    def test_peer_side_evict_propagates_to_hub(self, hub, peer):
        """A non-hub transport's evict() forwards to the hub, so every
        member of the cluster stops resolving the stale entry — not just
        the caller."""
        peer.register("worker", _Endpoint())
        other = TcpTransport(
            MetricsRegistry(), conf=_fast_conf(), hub_addr=hub.address, name="other"
        )
        try:
            assert other.call("worker", "add", 2, 2) == 4
            other.evict("worker")
            # The caller's own cache is cleared and the hub no longer
            # resolves the entry, so a fresh lookup fails too.
            with pytest.raises(WorkerLost):
                other.call("worker", "add", 1, 1)
            with pytest.raises(WorkerLost, match="unknown"):
                hub.call("worker", "add", 1, 1)
        finally:
            other.close()

    def test_reannounce_after_evict_restores_resolution(self, hub, peer):
        """Eviction is not death: a re-registered endpoint (same name, new
        incarnation) supersedes the eviction instead of staying dark."""
        peer.register("worker", _Endpoint())
        hub.evict("worker")
        with pytest.raises(WorkerLost):
            hub.call("worker", "add", 1, 1)
        peer.register("worker", _Endpoint())
        assert hub.call("worker", "add", 3, 4) == 7

    def test_call_timeout_is_worker_lost(self, hub):
        slow_peer = TcpTransport(
            MetricsRegistry(),
            conf=_fast_conf(call_timeout_s=10.0),
            hub_addr=hub.address,
        )
        try:
            slow_peer.register("worker", _Endpoint())
            # A fresh caller with a tiny round-trip budget: the peer
            # accepts but answers too late.
            caller = TcpTransport(
                MetricsRegistry(),
                conf=_fast_conf(call_timeout_s=0.1),
                hub_addr=hub.address,
            )
            try:
                with pytest.raises(WorkerLost, match="connection lost"):
                    caller.call("worker", "slow", 0.5)
            finally:
                caller.close()
        finally:
            slow_peer.close()

    def test_mark_dead_remote_fails_fast(self, hub, peer):
        peer.register("worker", _Endpoint())
        hub.mark_dead("worker")
        with pytest.raises(WorkerLost, match="down"):
            hub.call("worker", "add", 1, 1)
        assert not hub.is_alive("worker")
        # The peer's own server is untouched: only the hub's view died.
        assert not peer.server.closed

    def test_mark_dead_local_closes_server(self, peer):
        peer.register("worker", _Endpoint())
        peer.mark_dead("worker")
        assert peer.server.closed

    def test_is_alive_probes_over_the_wire(self, hub, peer):
        peer.register("worker", _Endpoint())
        assert hub.is_alive("worker")
        peer.mark_dead("worker")
        assert not hub.is_alive("worker")

    def test_try_call_swallows_worker_lost(self, hub):
        assert hub.try_call("ghost", "add", 1, 2) is False
        hub.register("svc", _Endpoint())
        assert hub.try_call("svc", "add", 1, 2) is True

    def test_rpc_count_and_wire_metrics(self, hub, peer):
        peer.register("worker", _Endpoint())
        n = 4
        for i in range(n):
            hub.call("worker", "add", i, i)
        # Engine counter: exactly one per logical call — directory
        # traffic (announce/resolve) is excluded by design.
        assert hub.metrics.counter(COUNT_RPC_MESSAGES).value == n
        # Wire counters: every call moved real bytes both ways.
        assert hub.metrics.counter(COUNT_NET_BYTES_SENT).value > 0
        assert hub.metrics.counter(COUNT_NET_BYTES_RECEIVED).value > 0
        # Per-method latency histogram has one sample per call.
        hist = hub.metrics.histogram(f"{HIST_NET_CALL_LATENCY}.add")
        assert len(hist) == n
        assert hist.summary()["p50"] >= 0

    def test_byte_counters_agree_across_the_wire(self, hub, peer):
        # Both sides count header plus payload, so what one transport
        # sent is exactly what the other received, in each direction.
        hub.register("driver", _Endpoint())
        peer.register("worker", _Endpoint())
        for i in range(5):
            assert hub.call("worker", "add", i, i) == 2 * i
            hub.post("worker", "add", i, i)
            peer.post("driver", "add", i, i)
        hub.flush("worker")
        peer.flush("driver")

        def totals():
            return [
                (t.metrics.counter(COUNT_NET_BYTES_SENT).value,
                 t.metrics.counter(COUNT_NET_BYTES_RECEIVED).value)
                for t in (hub, peer)
            ]

        # A server counts its reply after sendall returns, so the caller
        # can hold the reply before the counter moves: poll until settled.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            (hub_sent, hub_received), (peer_sent, peer_received) = totals()
            if hub_sent == peer_received and peer_sent == hub_received:
                break
            time.sleep(0.01)
        assert hub_sent > 0 and peer_sent > 0
        assert (hub_sent, hub_received) == (peer_received, peer_sent)

    def test_trace_context_activates_on_handler_side(self, hub, peer):
        from repro.obs.trace import TraceRecorder

        tracer = TraceRecorder()
        hub_traced = TcpTransport(
            MetricsRegistry(), tracer=tracer, conf=_fast_conf(), name="hub2"
        )
        peer_traced = TcpTransport(
            MetricsRegistry(),
            tracer=tracer,
            conf=_fast_conf(),
            hub_addr=hub_traced.address,
            name="peer2",
        )
        try:

            class Traced:
                def work(self):
                    with tracer.start_span("handler.work", actor="worker"):
                        return "ok"

            peer_traced.register("worker", Traced())
            with tracer.start_span("caller.root", actor="driver"):
                assert hub_traced.call("worker", "work") == "ok"
            events = tracer.events()
            by_name = {e["name"]: e for e in events}
            root = by_name["caller.root"]
            child = by_name["handler.work"]
            # The envelope carried the caller's context across the wire:
            # the handler span joined the caller's trace.
            assert child["trace_id"] == root["trace_id"]
            assert child["parent_id"] == root["span_id"]
        finally:
            peer_traced.close()
            hub_traced.close()


class TestErrorWireSafety:
    """Engine exceptions hold formatted-args state; default unpickling
    would re-format and crash.  __reduce__ keeps them wire-safe."""

    def test_worker_lost_roundtrip(self):
        err = pickle.loads(pickle.dumps(WorkerLost("worker-3", "heartbeat timeout")))
        assert isinstance(err, WorkerLost)
        assert err.worker_id == "worker-3"
        assert err.reason == "heartbeat timeout"

    def test_fetch_failed_roundtrip(self):
        err = pickle.loads(pickle.dumps(FetchFailed("shuf-1", 4, "worker-2")))
        assert isinstance(err, FetchFailed)
        assert (err.shuffle_id, err.map_index, err.worker_id) == (
            "shuf-1",
            4,
            "worker-2",
        )

    def test_task_error_roundtrip_preserves_cause(self):
        cause = ZeroDivisionError("division by zero")
        err = pickle.loads(pickle.dumps(TaskError("t-9", cause)))
        assert isinstance(err, TaskError)
        assert err.task_id == "t-9"
        assert isinstance(err.cause, ZeroDivisionError)


class TestReportSerde:
    def test_unpicklable_result_reaches_driver_as_serialization_error(self):
        """Reports are data (stdlib pickle); a result holding a lock still
        fails the job with a SerializationError that names the lock."""
        from engine_test_utils import make_cluster

        from repro.common.config import SchedulingMode
        from repro.common.errors import SerializationError
        from repro.dag.dataset import parallelize

        with make_cluster(
            SchedulingMode.DRIZZLE, workers=2, slots=2, transport="tcp"
        ) as cluster:
            dataset = parallelize(range(4), 2).map(lambda x: (x, threading.Lock()))
            with pytest.raises(SerializationError) as exc:
                cluster.collect(dataset)
        assert "lock" in str(exc.value)
