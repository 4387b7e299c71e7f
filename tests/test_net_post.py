"""One-way messages (``BaseTransport.post``): ordering, coalescing,
acknowledgement, and what happens when the acknowledgement never comes.

Coalescing is asserted on the ``net.frames_sent`` counter and the
``net.messages_per_frame`` histogram, never on timing: a handler that
blocks on an event holds one exchange to the peer open, everything posted
meanwhile must leave as exactly one frame once it is released.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.config import EngineConf, SchedulingMode, TransportConf
from repro.common.errors import SerializationError, WorkerLost
from repro.common.metrics import (
    COUNT_HA_FENCED,
    COUNT_HA_PARKED_REPORTS,
    COUNT_NET_FRAMES_SENT,
    COUNT_RPC_MESSAGES,
    COUNT_TASKS_LAUNCHED,
    HIST_NET_CALL_LATENCY,
    HIST_NET_MESSAGES_PER_FRAME,
    MetricsRegistry,
)
from repro.dag.dataset import parallelize
from repro.dag.plan import collect_action, compile_plan
from repro.engine.cluster import LocalCluster
from repro.engine.rpc import Transport
from repro.engine.task import TaskDescriptor, TaskId, TaskReport
from repro.engine.worker import Worker
from repro.net.transport import SENDER_THREAD_MARK, TcpTransport
from repro.streaming.context import StreamingContext
from repro.streaming.sources import FixedBatchSource

from test_engine_worker import wait_for

# Handlers run in this process but their arguments cross a real socket, so
# a gate is named on the wire and looked up here.
_GATES: dict = {}


class _Gate:
    def __init__(self, name: str):
        self.name = name
        self.entered = threading.Event()
        self.release = threading.Event()
        _GATES[name] = self

    def hold(self) -> None:
        self.entered.set()
        assert self.release.wait(10.0), "gate never released"


@pytest.fixture
def gate():
    g = _Gate(f"gate-{time.monotonic_ns()}")
    yield g
    g.release.set()
    _GATES.pop(g.name, None)


class _Recorder:
    """Endpoint that records what it is sent, in arrival order."""

    def __init__(self):
        self.seen = []
        self.reports = []
        self.delivery_failures = []

    def note(self, value):
        self.seen.append(value)

    def gate(self, name):
        _GATES[name].hold()

    def boom(self, value):
        self.seen.append(("boom", value))
        raise ValueError("refused on the receiver")

    def task_finished(self, report):
        self.reports.append(report)

    def notify_delivery_failed(self, job_id, shuffle_id, map_index, src, target):
        self.delivery_failures.append((job_id, shuffle_id, map_index, src, target))


class _GatedWorker(Worker):
    def gate(self, name):
        _GATES[name].hold()


def _conf():
    return TransportConf(backend="tcp", max_retries=1, retry_backoff_s=0.001)


def _transport(name, hub=None):
    return TcpTransport(
        MetricsRegistry(),
        conf=_conf(),
        hub_addr=None if hub is None else hub.address,
        name=name,
    )


@pytest.fixture
def hub():
    transport = _transport("hub")
    yield transport
    transport.close()


@pytest.fixture
def peer(hub):
    transport = _transport("peer", hub)
    yield transport
    transport.close()


def _engine_conf():
    conf = EngineConf(num_workers=1)
    conf.monitor.enable_heartbeats = False
    return conf


def _report(job_id=0, partition=0, result=None):
    return TaskReport(
        task_id=TaskId(job_id, 0, partition),
        worker_id="w0",
        succeeded=True,
        result=[partition] if result is None else result,
    )


def _frame_sizes(transport):
    return transport.metrics.histogram(HIST_NET_MESSAGES_PER_FRAME).snapshot()


def _hold_outbox(transport, dst, gate):
    """Block ``transport``'s exchange to ``dst`` inside a handler.  Returns
    the frames sent *before* the frame that carries the gate, and how many
    one-way frames have been built once it is held (the gate's included)."""
    frames = transport.metrics.counter(COUNT_NET_FRAMES_SENT).value
    sizes = len(_frame_sizes(transport))
    transport.post(dst, "gate", gate.name)
    assert gate.entered.wait(5.0)
    return frames, sizes + 1


# ----------------------------------------------------------------------
# The in-process transport
# ----------------------------------------------------------------------
class TestInprocPost:
    def test_delivers_synchronously_and_counts_one_message(self):
        transport = Transport(MetricsRegistry())
        sink = _Recorder()
        transport.register("sink", sink)
        transport.post("sink", "note", 1)
        assert sink.seen == [1]  # no flush needed: delivered in the caller
        assert transport.metrics.counter(COUNT_RPC_MESSAGES).value == 1
        transport.flush("sink")  # and flush is a no-op

    def test_unknown_endpoint_runs_on_undelivered_in_the_caller(self):
        transport = Transport(MetricsRegistry())
        lost = []
        transport.post("ghost", "note", 1, on_undelivered=lost.append)
        assert len(lost) == 1 and isinstance(lost[0], WorkerLost)
        transport.post("ghost", "note", 2)  # best effort: nothing raised

    def test_receiver_side_refusal_stays_on_the_receiver(self):
        transport = Transport(MetricsRegistry())
        sink = _Recorder()
        transport.register("sink", sink)
        lost = []
        transport.post("sink", "boom", 1, on_undelivered=lost.append)
        assert sink.seen == [("boom", 1)] and lost == []


# ----------------------------------------------------------------------
# The tcp transport
# ----------------------------------------------------------------------
class TestTcpPost:
    def test_posts_arrive_in_post_order(self, hub, peer):
        sink = _Recorder()
        peer.register("sink", sink)
        for i in range(300):
            hub.post("sink", "note", i)
        hub.flush("sink")
        assert sink.seen == list(range(300))
        assert hub.metrics.counter(COUNT_RPC_MESSAGES).value == 300
        # One latency sample per logical message, however they travelled.
        assert len(hub.metrics.histogram(f"{HIST_NET_CALL_LATENCY}.note")) == 300
        assert sum(_frame_sizes(hub)) == 300

    def test_posts_made_during_an_exchange_leave_as_one_frame(self, hub, peer, gate):
        sink = _Recorder()
        peer.register("sink", sink)
        frames, sizes = _hold_outbox(hub, "sink", gate)
        for i in range(25):
            hub.post("sink", "note", i)
        gate.release.set()
        hub.flush("sink")
        assert sink.seen == list(range(25))
        # The gate's frame, then one frame for all 25.
        assert hub.metrics.counter(COUNT_NET_FRAMES_SENT).value == frames + 2
        assert _frame_sizes(hub)[sizes:] == [25]

    def test_an_idle_peer_sees_single_message_frames(self, hub, peer):
        sink = _Recorder()
        peer.register("sink", sink)
        for i in range(5):
            hub.post("sink", "note", i)
            hub.flush("sink")
        assert _frame_sizes(hub) == [1, 1, 1, 1, 1]

    def test_refused_message_does_not_stop_the_rest_of_its_frame(self, hub, peer, gate):
        sink = _Recorder()
        peer.register("sink", sink)
        _frames, sizes = _hold_outbox(hub, "sink", gate)
        lost = []
        hub.post("sink", "note", "before")
        hub.post("sink", "boom", 7, on_undelivered=lost.append)
        hub.post("sink", "note", "after")
        gate.release.set()
        hub.flush("sink")
        assert sink.seen == ["before", ("boom", 7), "after"]
        assert lost == []  # refused is not undelivered
        assert _frame_sizes(hub)[sizes:] == [3]

    def test_unserializable_post_raises_in_the_caller(self, hub, peer):
        sink = _Recorder()
        peer.register("sink", sink)
        hub.post("sink", "note", "a")
        with pytest.raises(SerializationError):
            hub.post("sink", "note", threading.Lock())
        hub.post("sink", "note", "b")
        hub.flush("sink")
        assert sink.seen == ["a", "b"]

    def test_closed_peer_runs_each_on_undelivered_exactly_once(self, hub, peer, gate):
        sink = _Recorder()
        peer.register("sink", sink)
        lost = []
        hub.post("sink", "gate", gate.name, on_undelivered=lambda e: lost.append("gate"))
        assert gate.entered.wait(5.0)
        for i in range(10):
            hub.post("sink", "note", i, on_undelivered=lambda e, i=i: lost.append(i))
        peer.close()  # the crash model: reset mid-exchange, refused after
        gate.release.set()
        hub.flush("sink")
        assert sorted(lost, key=str) == sorted(["gate", *range(10)], key=str)
        assert sink.seen == []
        # A peer known dead fails in the caller, without queueing.
        hub.post("sink", "note", 99, on_undelivered=lambda e: lost.append(99))
        assert lost[-1] == 99

    def test_unknown_endpoint_on_a_live_peer_is_undelivered(self, hub, peer):
        """The frame is acknowledged, the message is not: per-message
        status, not per-frame."""
        sink = _Recorder()
        peer.register("sink", sink)
        hub.post("sink", "note", 1)
        hub.flush("sink")
        with hub._lock:  # a second endpoint the hub believes lives at peer
            hub._directory["ghost"] = peer.address
        lost = []
        hub.post("ghost", "note", 2, on_undelivered=lost.append)
        hub.flush("ghost")
        assert len(lost) == 1 and "unknown endpoint" in str(lost[0])

    def test_close_discards_the_queue_and_stops_the_sender(self, hub, peer, gate):
        sink = _Recorder()
        peer.register("sink", sink)
        _hold_outbox(hub, "sink", gate)
        lost = []
        for i in range(5):
            hub.post("sink", "note", i, on_undelivered=lost.append)
        hub.close()
        gate.release.set()
        hub.flush("sink")  # returns at once on a closed transport
        assert sink.seen == [] and lost == []
        assert not [
            t for t in threading.enumerate() if t.name.startswith("hub" + SENDER_THREAD_MARK)
        ]

    def test_trace_context_is_per_message(self, hub, peer, gate):
        """Messages coalesced into one frame keep the span context each
        was posted under, re-activated per message on the receiver."""
        from repro.obs.trace import TraceRecorder

        tracer = TraceRecorder()
        sender = TcpTransport(
            MetricsRegistry(), conf=_conf(), hub_addr=hub.address,
            tracer=tracer, name="traced",
        )
        seen = []

        class Probe(_Recorder):
            def note(self, value):
                seen.append((value, tracer.current()))

        receiver = TcpTransport(
            MetricsRegistry(), conf=_conf(), hub_addr=hub.address,
            tracer=tracer, name="traced-peer",
        )
        try:
            receiver.register("probe", Probe())
            _frames, sizes = _hold_outbox(sender, "probe", gate)
            contexts = []
            for i in range(3):
                with tracer.start_span(f"span-{i}", root=True) as span:
                    contexts.append(span.context)
                    sender.post("probe", "note", i)
            gate.release.set()
            sender.flush("probe")
            assert _frame_sizes(sender)[sizes:] == [3]
            assert seen == list(enumerate(contexts))
        finally:
            sender.close()
            receiver.close()


# ----------------------------------------------------------------------
# Workers and the driver on top of it
# ----------------------------------------------------------------------
@pytest.fixture
def driver_peer(hub):
    """A recording driver endpoint on its own transport, so it can be
    crashed without taking the discovery hub with it."""
    transport = _transport("drv", hub)
    driver = _Recorder()
    transport.register("driver", driver)
    yield driver, transport
    transport.close()


@pytest.fixture
def tcp_worker(hub):
    transport = _transport("w0", hub)
    worker = _GatedWorker("w0", transport, _engine_conf(), MetricsRegistry())
    worker.start()
    yield worker
    worker.shutdown()
    transport.close()


class TestWorkerPosts:
    def test_undelivered_notification_reaches_the_driver(self, hub, driver_peer, tcp_worker):
        driver, _ = driver_peer
        gone = _transport("w1", hub)
        gone.register("w1", _Recorder())
        gone.close()
        desc = TaskDescriptor(
            task_id=TaskId(3, 0, 2), plan=None, downstream={0: "w1"}
        )
        tcp_worker._notify_downstream(desc, shuffle_id=4, map_index=2, epoch=1)
        tcp_worker.transport.flush("w1")
        assert wait_for(lambda: driver.delivery_failures)
        assert driver.delivery_failures == [(3, 4, 2, "w0", "w1")]

    def test_undelivered_report_is_retried_then_parked(self, hub, driver_peer, tcp_worker):
        driver, driver_transport = driver_peer
        tcp_worker._send_report(_report(partition=1))
        tcp_worker.transport.flush("driver")
        assert [r.task_id.partition for r in driver.reports] == [1]
        driver_transport.close()  # the driver goes away
        tcp_worker._send_report(_report(partition=2))
        tcp_worker.transport.flush("driver")  # returns after the bounded park
        assert tcp_worker.metrics.counter(COUNT_HA_PARKED_REPORTS).value == 1
        assert [r.task_id.partition for r in driver.reports] == [1]

    def test_unreadable_acknowledgement_redelivers_with_a_blocking_call(
        self, hub, driver_peer, tcp_worker
    ):
        """The driver took the report but its acknowledgement is garbage:
        the worker cannot tell, so the fallback delivers it again
        (at-least-once) with a blocking call — nothing is parked."""
        driver, driver_transport = driver_peer
        real = driver_transport.server._post_handler
        garbled = []

        def garble_first(messages):
            ack = real(messages)
            if not garbled:
                garbled.append(len(messages))
                return b"not a pickle"
            return ack

        driver_transport.server._post_handler = garble_first
        tcp_worker._send_report(_report(partition=5))
        tcp_worker.transport.flush("driver")
        assert garbled == [1]
        assert [r.task_id.partition for r in driver.reports] == [5, 5]
        assert tcp_worker.metrics.counter(COUNT_HA_PARKED_REPORTS).value == 0

    def test_unpicklable_result_is_stripped_and_neighbours_untouched(
        self, hub, driver_peer, tcp_worker, gate
    ):
        driver, _ = driver_peer
        tcp_worker.transport.post("driver", "gate", gate.name)
        assert gate.entered.wait(5.0)
        tcp_worker._send_report(_report(partition=0))
        tcp_worker._send_report(_report(partition=1, result=[threading.Lock()]))
        tcp_worker._send_report(_report(partition=2))
        gate.release.set()
        tcp_worker.transport.flush("driver")
        assert [r.task_id.partition for r in driver.reports] == [0, 1, 2]
        ok0, stripped, ok2 = driver.reports
        assert ok0.succeeded and ok0.result == [0]
        assert ok2.succeeded and ok2.result == [2]
        assert not stripped.succeeded and stripped.result is None
        assert isinstance(stripped.error, SerializationError)

    def test_fenced_drop_does_not_stop_the_rest_of_its_frame(self, hub, tcp_worker, gate):
        worker = tcp_worker
        worker.launch_tasks([], driver_epoch=5)
        for job_id in (1, 2):
            worker.blocks.put_map_output(job_id, 0, 0, {0: [job_id]})
        _frames, sizes = _hold_outbox(hub, "w0", gate)
        hub.post("w0", "drop_job", 1, driver_epoch=4)  # a zombie driver's
        hub.post("w0", "drop_job", 2, driver_epoch=5)
        gate.release.set()
        hub.flush("w0")
        assert _frame_sizes(hub)[sizes:] == [2]
        assert worker.metrics.counter(COUNT_HA_FENCED).value == 1
        assert worker.blocks.has_map_output(1, 0, 0)  # refused
        assert not worker.blocks.has_map_output(2, 0, 0)  # still processed

    def test_kill_discards_what_is_queued(self, hub, driver_peer, tcp_worker, gate):
        driver, _ = driver_peer
        tcp_worker.transport.post("driver", "gate", gate.name)
        assert gate.entered.wait(5.0)
        for partition in range(4):
            tcp_worker._send_report(_report(partition=partition))
        tcp_worker.kill()
        gate.release.set()
        time.sleep(0.2)  # nothing to wait on: the point is that nothing comes
        assert driver.reports == []
        assert tcp_worker.metrics.counter(COUNT_HA_PARKED_REPORTS).value == 0


def _deliver_every_frame_twice(cluster):
    """Make every one-way frame in the cluster behave as if its
    acknowledgement had been lost and the whole frame resent."""
    for transport in cluster._transports:
        real = transport.server._post_handler
        transport.server._post_handler = (
            lambda messages, real=real: (real(messages), real(messages))[1]
        )


class TestClusterPosts:
    def _conf(self):
        conf = EngineConf(
            num_workers=2,
            slots_per_worker=2,
            scheduling_mode=SchedulingMode.DRIZZLE,
            group_size=3,
        )
        conf.transport = _conf()
        return conf

    def test_duplicate_delivery_is_harmless(self):
        """task_finished (stale-duplicate guard), notify_output and
        drop_job (idempotent) all delivered twice: results stay exact,
        every batch is applied once, GC still empties the block stores,
        and no duplicate notification brings a dropped job's tables back."""
        batches = [[f"k{(b + i) % 5}" for i in range(20)] for b in range(6)]
        expected: dict = {}
        for batch in batches:
            for word in batch:
                expected[word] = expected.get(word, 0) + 1
        with LocalCluster(self._conf()) as cluster:
            _deliver_every_frame_twice(cluster)
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 4))
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 3
            ).update_state(store, merge=lambda a, b: a + b)
            ctx.run_batches(len(batches))
            assert dict(store.items()) == expected
            tasks = cluster.metrics.counter(COUNT_TASKS_LAUNCHED).value
            assert tasks == len(batches) * 7  # 4 map + 3 reduce, none re-run
            for worker in cluster.workers.values():
                assert len(worker.blocks) == 0
                assert worker._pending == {}
                assert worker._parked == {}
                assert worker._dep_locations == {}

    def test_drop_jobs_is_one_round_per_worker(self):
        with LocalCluster(self._conf()) as cluster:
            data = parallelize(range(40), 4).map(lambda x: (x % 3, x))
            plan_data = data.reduce_by_key(lambda a, b: a + b, 2)
            plans = [compile_plan(plan_data, collect_action()) for _ in range(3)]
            job_ids = cluster.driver.submit_group(plans)
            for job_id in job_ids:
                cluster.driver.wait_job(job_id)
            assert any(len(w.blocks) for w in cluster.workers.values())
            before = cluster.metrics.counter(COUNT_RPC_MESSAGES).value
            cluster.driver.drop_jobs(job_ids)
            # Gone when it returns, one logical message per job per worker.
            assert all(len(w.blocks) == 0 for w in cluster.workers.values())
            assert cluster.metrics.counter(COUNT_RPC_MESSAGES).value == before + 6

    def test_nothing_outlives_the_cluster(self):
        with LocalCluster(self._conf()) as cluster:
            assert cluster.collect(
                parallelize(range(8), 4).map(lambda x: (x % 2, 1)).reduce_by_key(
                    lambda a, b: a + b, 2
                )
            )
            senders = [t for t in threading.enumerate() if SENDER_THREAD_MARK in t.name]
            assert senders  # reports and notifications really were posted
        assert not [
            t for t in threading.enumerate() if SENDER_THREAD_MARK in t.name and t.is_alive()
        ]

    def test_wire_counters_show_on_the_dashboard(self):
        from repro.common.config import TelemetryConf
        from repro.obs.top import render_dashboard

        conf = self._conf()
        conf.telemetry = TelemetryConf(enabled=True, interval_s=0.02)
        with LocalCluster(conf) as cluster:
            cluster.collect(
                parallelize(range(8), 4).map(lambda x: (x % 2, 1)).reduce_by_key(
                    lambda a, b: a + b, 2
                )
            )
            cluster.telemetry.poll_driver()
            net = [
                line
                for line in render_dashboard(cluster.telemetry).splitlines()
                if line.startswith("  net ")
            ]
            assert len(net) == 1
            assert "messages=" in net[0] and "frames=" in net[0]
            assert "one-way msgs/frame" in net[0]
