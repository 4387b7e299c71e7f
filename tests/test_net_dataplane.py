"""Data-plane fast-path tests: the one frame header layout, batched
``fetch_buckets`` with per-map-output partial failure, BlockStore
accounting, content-addressed stage-blob caching (including the
``stage_miss`` reship recovery path), and stale-address invalidation on
worker re-announce."""

import socket
import struct
import threading
from dataclasses import fields

import pytest

from repro.common.config import (
    EngineConf,
    SchedulingMode,
    TransportConf,
)
from repro.common.errors import ConfigError, FetchFailed, WorkerLost
from repro.common.metrics import (
    COUNT_NET_FETCH_BATCHES,
    COUNT_RPC_MESSAGES,
    COUNT_STAGE_CACHE_HIT,
    COUNT_STAGE_CACHE_MISS,
    HIST_NET_BUCKETS_PER_FETCH,
    MetricsRegistry,
)
from repro.dag.dataset import parallelize
from repro.dag.plan import collect_action, compile_plan
from repro.engine.blocks import BUCKET_MISSING, BUCKET_OK, BlockStore
from repro.engine.rpc import Transport
from repro.engine.task import ReadSpec, TaskDescriptor, TaskId
from repro.engine.worker import Worker
from repro.net import FrameError, TcpTransport, encode_frame, read_frame
from repro.net.framing import HEADER, KIND_REQUEST, MAGIC, VERSION
from repro.net.stageblobs import (
    StageBlobReceiver,
    StageBlobSender,
    WireLaunch,
    blob_digest,
)

from engine_test_utils import make_cluster
from test_engine_worker import _FakeDriver, wait_for


# ----------------------------------------------------------------------
# Framing: one header layout
# ----------------------------------------------------------------------
class TestFramingFlags:
    def test_flags_zero_is_bit_identical_to_v1(self):
        payload = b"legacy peers must not notice"
        assert encode_frame(KIND_REQUEST, payload) == (
            HEADER.pack(MAGIC, VERSION, KIND_REQUEST, len(payload)) + payload
        )

    def test_mixed_versions_on_one_connection(self):
        # A v1 frame reads; the flagged v2 header older releases sent
        # after it is an unknown version, not a frame to misparse.
        v2 = b"RN\x02\x01\x00" + struct.pack(">I", 5) + b"plain"
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame(KIND_REQUEST, b"plain") + v2)
            assert read_frame(b) == (KIND_REQUEST, b"plain")
            with pytest.raises(FrameError, match="unsupported frame version 2"):
                read_frame(b)
        finally:
            a.close()
            b.close()


class TestDataPlaneConf:
    """The transport's former ``data_plane`` section (frame compression)."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compression": "auto"},
            {"compress_threshold_bytes": 4096},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        # The transport has no data_plane section any more: naming it is
        # rejected with the valid keys listed, not ignored.
        with pytest.raises(ConfigError, match="call_timeout_s"):
            EngineConf.from_dict({"transport": {"data_plane": kwargs}})
        assert "data_plane" not in {f.name for f in fields(TransportConf)}


# ----------------------------------------------------------------------
# BlockStore accounting + batched reads
# ----------------------------------------------------------------------
class TestBlockStore:
    def test_drop_job_reclaims_records(self):
        store = BlockStore("w0")
        store.put_map_output(0, 10, 0, {0: [1, 2], 1: [3]})
        store.put_map_output(0, 10, 1, {0: [4]})
        store.put_map_output(1, 11, 0, {0: [5, 6, 7]})
        assert store.stored_records == 7
        assert store.drop_job(0) == 2
        assert store.stored_records == 3
        assert len(store) == 1

    def test_replacing_block_does_not_double_count(self):
        store = BlockStore("w0")
        store.put_map_output(0, 10, 0, {0: [1, 2, 3]})
        store.put_map_output(0, 10, 0, {0: [1]})  # speculative re-run
        assert store.stored_records == 1
        store.clear()
        assert store.stored_records == 0

    def test_bucket_sizes(self):
        store = BlockStore("w0")
        store.put_map_output(0, 10, 0, {0: [1, 2], 1: []})
        assert store.bucket_sizes(0, 10, 0) == {0: 2, 1: 0}
        assert store.bucket_sizes(0, 10, 9) is None

    def test_get_buckets_partial_results_in_request_order(self):
        store = BlockStore("w0")
        store.put_map_output(0, 10, 0, {0: [1], 1: [2]})
        replies = store.get_buckets(
            0, [(10, 0, 1), (10, 7, 0), (10, 0, 0), (10, 0, 5)]
        )
        assert replies == [
            (BUCKET_OK, [2]),
            (BUCKET_MISSING, None),  # absent block is data, not an exception
            (BUCKET_OK, [1]),
            (BUCKET_OK, []),  # present block, empty reduce partition
        ]

    def test_stale_epoch_block_is_missing_until_rewritten(self):
        store = BlockStore("w0")
        store.put_map_output(0, 10, 0, {0: [1]}, epoch=1)
        store.put_map_output(0, 10, 1, {0: [2]}, epoch=2)
        assert store.get_bucket(0, 10, 0, 0) == [1]
        assert store.get_bucket(0, 10, 0, 0, min_epoch=1) == [1]
        assert store.has_map_output(0, 10, 0, min_epoch=1)
        # A consumer that requires the re-run must never be served the
        # superseded attempt's co-named block.
        with pytest.raises(FetchFailed):
            store.get_bucket(0, 10, 0, 0, min_epoch=2)
        assert not store.has_map_output(0, 10, 0, min_epoch=2)
        requests = [(10, 0, 0, 2), (10, 1, 0, 2)]
        assert store.get_buckets(0, requests) == [
            (BUCKET_MISSING, None),
            (BUCKET_OK, [2]),
        ]
        store.put_map_output(0, 10, 0, {0: [9]}, epoch=2)
        assert store.get_bucket(0, 10, 0, 0, min_epoch=2) == [9]
        assert store.has_map_output(0, 10, 0, min_epoch=2)
        assert store.get_buckets(0, requests) == [
            (BUCKET_OK, [9]),
            (BUCKET_OK, [2]),
        ]

    def test_concurrent_put_and_get(self):
        store = BlockStore("w0")
        errors = []

        def writer(map_index):
            for _ in range(50):
                store.put_map_output(0, 10, map_index, {0: [map_index] * 4})

        def reader():
            for _ in range(200):
                replies = store.get_buckets(0, [(10, 0, 0), (10, 1, 0)])
                for status, bucket in replies:
                    if status == BUCKET_OK and len(bucket) != 4:
                        errors.append(bucket)
                _ = store.stored_records

        threads = [threading.Thread(target=writer, args=(i,)) for i in (0, 1)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.stored_records == 8


# ----------------------------------------------------------------------
# Batched fetches through the worker
# ----------------------------------------------------------------------
def _shuffle_fixture(num_workers, maps=2, reducers=1):
    """Workers on one inproc transport plus a reduce plan over ``maps``
    map outputs."""
    transport = Transport(MetricsRegistry())
    driver = _FakeDriver()
    transport.register("driver", driver)
    workers = []
    for i in range(num_workers):
        w = Worker(f"w{i}", transport, EngineConf(), MetricsRegistry())
        w.start()
        workers.append(w)
    data = [(chr(ord("a") + i), 1) for i in range(maps)]
    plan = compile_plan(
        parallelize(data, maps).reduce_by_key(lambda a, b: a + b, reducers),
        collect_action(),
    )
    shuffle_id = plan.stages[0].output_shuffle.shuffle_id
    return transport, driver, workers, plan, shuffle_id


def _reduce_descriptor(plan, shuffle_id, maps, locations):
    return TaskDescriptor(
        task_id=TaskId(0, 1, 0),
        plan=plan,
        pre_scheduled=False,
        deps=frozenset((shuffle_id, m) for m in range(maps)),
        map_locations={(shuffle_id, m): locations[m] for m in range(maps)},
    )


class TestBatchedFetch:
    def test_fetch_buckets_rpc_serves_batch(self):
        _, _, (w0,), _, _ = _shuffle_fixture(1)
        try:
            w0.blocks.put_map_output(0, 10, 0, {0: [1], 1: [2]})
            replies = w0.fetch_buckets(0, [(10, 0, 0), (10, 0, 1), (10, 3, 0)])
            assert replies == [
                (BUCKET_OK, [1]),
                (BUCKET_OK, [2]),
                (BUCKET_MISSING, None),
            ]
        finally:
            w0.shutdown()

    def test_fetch_buckets_on_dead_worker_raises(self):
        _, _, (w0,), _, _ = _shuffle_fixture(1)
        w0.kill()
        with pytest.raises(WorkerLost):
            w0.fetch_buckets(0, [(10, 0, 0)])
        w0.shutdown()

    def test_one_round_trip_per_peer(self):
        # 4 map outputs on 2 peers -> exactly 2 fetch_buckets batches of
        # 2 buckets each, not 4 sequential fetch_bucket calls.
        _, driver, workers, plan, sid = _shuffle_fixture(3, maps=4)
        w0, w1, w2 = workers
        try:
            for m, holder in enumerate([w1, w1, w2, w2]):
                buckets = {0: [(chr(ord("a") + m), 1)]}
                holder.blocks.put_map_output(0, sid, m, buckets)
            desc = _reduce_descriptor(
                plan, sid, 4, {0: "w1", 1: "w1", 2: "w2", 3: "w2"}
            )
            w0.launch_tasks([desc])
            assert wait_for(lambda: len(driver.reports) == 1)
            assert driver.reports[0].succeeded
            assert sorted(driver.reports[0].result) == [
                ("a", 1), ("b", 1), ("c", 1), ("d", 1),
            ]
            assert w0.metrics.counter(COUNT_NET_FETCH_BATCHES).value == 2
            assert w0.metrics.histogram(
                HIST_NET_BUCKETS_PER_FETCH
            ).snapshot() == [2.0, 2.0]
        finally:
            for w in workers:
                w.shutdown()

    def test_partial_failure_names_exactly_the_dead_peers_outputs(self):
        _, driver, workers, plan, sid = _shuffle_fixture(3, maps=2)
        w0, w1, w2 = workers
        try:
            w1.blocks.put_map_output(0, sid, 0, {0: [("a", 1)]})
            w2.kill()  # map output 1 is gone with its worker
            desc = _reduce_descriptor(plan, sid, 2, {0: "w1", 1: "w2"})
            w0.launch_tasks([desc])
            assert wait_for(lambda: len(driver.reports) == 1)
            err = driver.reports[0].error
            assert isinstance(err, FetchFailed)
            assert (err.shuffle_id, err.map_index, err.worker_id) == (sid, 1, "w2")
        finally:
            for w in workers:
                w.shutdown()

    def test_missing_block_on_live_peer_is_fetch_failed(self):
        _, driver, workers, plan, sid = _shuffle_fixture(2, maps=1)
        w0, w1 = workers
        try:
            # w1 is alive but never produced the block (eviction/drop).
            desc = _reduce_descriptor(plan, sid, 1, {0: "w1"})
            w0.launch_tasks([desc])
            assert wait_for(lambda: len(driver.reports) == 1)
            err = driver.reports[0].error
            assert isinstance(err, FetchFailed)
            assert (err.map_index, err.worker_id) == (0, "w1")
        finally:
            for w in workers:
                w.shutdown()

    def test_local_store_preferred_over_stale_location(self):
        # The block lives in w0's own store; map_locations stale-points at
        # a dead peer.  Local-first means no wire call and no failure.
        _, driver, workers, plan, sid = _shuffle_fixture(2, maps=1)
        w0, w1 = workers
        try:
            w0.blocks.put_map_output(0, sid, 0, {0: [("a", 1)]})
            w1.kill()
            desc = _reduce_descriptor(plan, sid, 1, {0: "w1"})
            w0.launch_tasks([desc])
            assert wait_for(lambda: len(driver.reports) == 1)
            assert driver.reports[0].succeeded
            assert w0.metrics.counter(COUNT_NET_FETCH_BATCHES).value == 0
        finally:
            for w in workers:
                w.shutdown()


# ----------------------------------------------------------------------
# Stage-blob caching
# ----------------------------------------------------------------------
def _descriptors(plan, n=2):
    return [
        TaskDescriptor(task_id=TaskId(0, 0, p), plan=plan, pre_scheduled=True)
        for p in range(n)
    ]


def _plan():
    return compile_plan(
        parallelize([1, 2, 3], 2).map(lambda x: x + 1), collect_action()
    )


class TestStageBlobs:
    def test_first_launch_ships_blob_second_ships_token(self):
        metrics = MetricsRegistry()
        sender = StageBlobSender(metrics)
        receiver = StageBlobReceiver()
        plan = _plan()

        launch, digests = sender.encode("w0", _descriptors(plan))
        assert len(launch.blobs) == 1 and len(digests) == 1
        decoded, missing = receiver.decode(launch)
        assert missing == [] and len(decoded) == 2
        sender.mark_shipped("w0", digests)

        launch2, _ = sender.encode("w0", _descriptors(plan))
        assert launch2.blobs == {}  # token-only
        decoded2, missing2 = receiver.decode(launch2)
        assert missing2 == []
        # Both rebuilt descriptors share the one cached plan object.
        assert decoded2[0].plan is decoded2[1].plan is decoded[0].plan
        assert metrics.counter(COUNT_STAGE_CACHE_HIT).value == 1
        assert metrics.counter(COUNT_STAGE_CACHE_MISS).value == 1

    def test_every_descriptor_field_survives_the_wire(self):
        """Walk ``TaskDescriptor``'s own field list so a field added later
        cannot be dropped by ``WireTaskDescriptor`` unnoticed (``plan``
        travels as its digest and is compared by identity above)."""
        import dataclasses

        from repro.obs.trace import SpanContext

        plan = _plan()
        sent = TaskDescriptor(
            task_id=TaskId(4, 1, 2, 3),
            plan=plan,
            pre_scheduled=True,
            deps=frozenset({(7, 0), (7, 1)}),
            downstream={0: "w1", 1: "w2"},
            map_locations={(7, 0): "w1"},
            map_epochs={(7, 0): 2, (7, 1): 1},
            trace_ctx=SpanContext("trace-1", 9),
            read=ReadSpec(4, 1, None, 2),
        )
        names = {f.name for f in dataclasses.fields(TaskDescriptor)} - {"plan"}
        # The fixture itself must not leave a field at its default.
        default = TaskDescriptor(task_id=sent.task_id, plan=plan)
        assert all(
            getattr(sent, n) != getattr(default, n) for n in names - {"task_id"}
        )
        launch, _ = StageBlobSender(MetricsRegistry()).encode("w0", [sent])
        (received,), missing = StageBlobReceiver().decode(launch)
        assert missing == []
        for name in names:
            assert getattr(received, name) == getattr(sent, name), name

    def test_plans_that_serialize_alike_share_one_blob(self):
        """A stream compiles a new plan object every group; the sender
        keeps one copy of their common blob, not one per group."""
        sender = StageBlobSender(MetricsRegistry())
        step = lambda x: x + 1  # noqa: E731 - one function for every plan
        plans = [
            compile_plan(parallelize([1, 2, 3], 2).map(step), collect_action())
            for _ in range(10)
        ]
        launches = [sender.encode("w0", _descriptors(plan))[0] for plan in plans]
        (digest,) = {d for launch in launches for d in launch.blobs}
        assert len({id(launch.blobs[digest]) for launch in launches}) == 1
        assert len(sender._blobs) == 1

    def test_per_peer_shipped_sets(self):
        sender = StageBlobSender(MetricsRegistry())
        plan = _plan()
        _, digests = sender.encode("w0", _descriptors(plan))
        sender.mark_shipped("w0", digests)
        launch_w1, _ = sender.encode("w1", _descriptors(plan))
        assert len(launch_w1.blobs) == 1  # w1 never saw the blob

    def test_receiver_cache_loss_reports_missing(self):
        sender = StageBlobSender(MetricsRegistry())
        receiver = StageBlobReceiver()
        plan = _plan()
        launch, digests = sender.encode("w0", _descriptors(plan))
        receiver.decode(launch)
        sender.mark_shipped("w0", digests)
        receiver.clear()  # simulated worker restart
        token_only, _ = sender.encode("w0", _descriptors(plan))
        decoded, missing = receiver.decode(token_only)
        assert decoded is None and missing == digests
        # force= attaches the blob again and the receiver recovers.
        reship, _ = sender.encode("w0", _descriptors(plan), force=frozenset(missing))
        assert set(reship.blobs) == set(missing)
        decoded2, missing2 = receiver.decode(reship)
        assert missing2 == [] and len(decoded2) == 2

    def test_forget_peer_reships(self):
        sender = StageBlobSender(MetricsRegistry())
        plan = _plan()
        _, digests = sender.encode("w0", _descriptors(plan))
        sender.mark_shipped("w0", digests)
        sender.forget_peer("w0")
        launch, _ = sender.encode("w0", _descriptors(plan))
        assert len(launch.blobs) == 1

    def test_corrupt_blob_rejected_as_missing(self):
        receiver = StageBlobReceiver()
        sender = StageBlobSender(MetricsRegistry())
        plan = _plan()
        launch, _ = sender.encode("w0", _descriptors(plan))
        (digest,) = launch.blobs
        tampered = WireLaunch(
            descriptors=launch.descriptors, blobs={digest: b"poisoned bytes"}
        )
        decoded, missing = receiver.decode(tampered)
        assert decoded is None and missing == [digest]
        assert len(receiver) == 0

    def test_blob_digest_is_content_address(self):
        assert blob_digest(b"abc") == blob_digest(b"abc")
        assert blob_digest(b"abc") != blob_digest(b"abd")
        assert len(blob_digest(b"abc")) == 16


# ----------------------------------------------------------------------
# TcpTransport integration: stage_miss reship + re-announce invalidation
# ----------------------------------------------------------------------
class _LaunchSink:
    """Worker stand-in capturing decoded launch payloads."""

    def __init__(self):
        self.launches = []

    def launch_tasks(self, descriptors):
        self.launches.append(descriptors)
        return "accepted"

    def add(self, a, b):
        return a + b


def _tcp(metrics=None, hub_addr=None, name=None, **conf_kwargs):
    conf_kwargs.setdefault("backend", "tcp")
    conf_kwargs.setdefault("max_retries", 1)
    conf_kwargs.setdefault("retry_backoff_s", 0.001)
    return TcpTransport(
        metrics or MetricsRegistry(),
        conf=TransportConf(**conf_kwargs),
        hub_addr=hub_addr,
        name=name,
    )


class TestTcpDataPlane:
    def test_stage_miss_reship_recovers_lost_worker_cache(self):
        hub = _tcp(name="hub")
        peer = _tcp(hub_addr=hub.address, name="peer")
        try:
            sink = _LaunchSink()
            peer.register("worker", sink)
            plan = _plan()

            assert hub.call("worker", "launch_tasks", _descriptors(plan)) == "accepted"
            assert hub.call("worker", "launch_tasks", _descriptors(plan)) == "accepted"
            hits = hub.metrics.counter(COUNT_STAGE_CACHE_HIT).value
            misses = hub.metrics.counter(COUNT_STAGE_CACHE_MISS).value
            assert (hits, misses) == (1, 1)
            assert len(peer._stage_receiver) == 1

            # The worker loses its cache; the hub still believes the blob
            # is shipped, so the next launch is token-only, the worker
            # answers stage_miss, and the hub re-ships transparently.
            peer._stage_receiver.clear()
            rpc_before = hub.metrics.counter(COUNT_RPC_MESSAGES).value
            assert hub.call("worker", "launch_tasks", _descriptors(plan)) == "accepted"
            # Renegotiation is plumbing: one call() = one counted message.
            assert hub.metrics.counter(COUNT_RPC_MESSAGES).value == rpc_before + 1
            assert hub.metrics.counter(COUNT_STAGE_CACHE_MISS).value == misses + 1
            assert len(sink.launches) == 3
            for descriptors in sink.launches:
                assert [d.task_id.partition for d in descriptors] == [0, 1]
                assert descriptors[0].plan is descriptors[1].plan
        finally:
            peer.close()
            hub.close()

    def test_reannounce_at_new_port_reaches_new_server(self):
        hub = _tcp(name="hub")
        caller = _tcp(hub_addr=hub.address, name="caller")
        first = _tcp(hub_addr=hub.address, name="workerB-1")
        second = None
        try:
            first.register("workerB", _LaunchSink())
            assert caller.call("workerB", "add", 1, 2) == 3  # caches the addr
            old_addr = first.address
            first.close()  # worker process dies...
            second = _tcp(hub_addr=hub.address, name="workerB-2")
            second.register("workerB", _LaunchSink())  # ...and re-announces
            # Drop the idle pooled connection (as an idle timeout would).
            # The cached address is now stale: the dial is refused, which
            # delivered nothing, so the caller re-resolves through the
            # hub and safely retries once at the fresh address.
            caller.pool.invalidate(old_addr)
            assert caller.call("workerB", "add", 40, 2) == 42
        finally:
            for t in (second, first, caller, hub):
                if t is not None:
                    t.close()

    def test_stale_pooled_connection_fails_once_then_recovers(self):
        hub = _tcp(name="hub")
        caller = _tcp(hub_addr=hub.address, name="caller")
        first = _tcp(hub_addr=hub.address, name="workerB-1")
        second = None
        try:
            first.register("workerB", _LaunchSink())
            assert caller.call("workerB", "add", 1, 2) == 3
            first.close()
            second = _tcp(hub_addr=hub.address, name="workerB-2")
            second.register("workerB", _LaunchSink())
            # The pooled socket to the dead server EOFs mid-exchange.
            # That is never retried (the request may have been delivered),
            # but it invalidates the address cache and the pool...
            with pytest.raises(WorkerLost):
                caller.call("workerB", "add", 1, 1)
            # ...so the next call re-resolves and reaches the new server.
            assert caller.call("workerB", "add", 40, 2) == 42
        finally:
            for t in (second, first, caller, hub):
                if t is not None:
                    t.close()


# ----------------------------------------------------------------------
# End-to-end: same plan object re-run on a tcp cluster hits the cache
# ----------------------------------------------------------------------
class TestTcpClusterStageCache:
    def test_repeated_jobs_hit_stage_cache_and_survive_cache_loss(self):
        with make_cluster(
            SchedulingMode.DRIZZLE, workers=2, slots=2, transport="tcp"
        ) as cluster:
            dataset = parallelize(list(range(20)), 4).map(lambda x: x * 2)
            assert sorted(cluster.collect(dataset)) == sorted(
                x * 2 for x in range(20)
            )
            metrics = cluster.metrics
            misses = metrics.counter(COUNT_STAGE_CACHE_MISS).value
            assert misses > 0
            # Second job: new plan, new blob -> more misses, still correct.
            dataset2 = parallelize(list(range(10)), 2).map(lambda x: x + 1)
            assert sorted(cluster.collect(dataset2)) == list(range(1, 11))
            assert metrics.counter(COUNT_STAGE_CACHE_MISS).value > misses

    def test_stale_block_is_missing_over_tcp_per_batch(self):
        """PER_BATCH reduce descriptors carry the minimum epoch of each
        dependency across the wire: a co-named block written by an older
        attempt is reported missing, exactly as in-process."""
        with make_cluster(
            SchedulingMode.PER_BATCH, workers=2, slots=2, transport="tcp"
        ) as cluster:
            plan = compile_plan(
                parallelize(range(8), 2).map(lambda x: (x % 2, x)).reduce_by_key(
                    lambda a, b: a + b, 2
                ),
                collect_action(),
            )
            holder, reader = sorted(cluster.workers)
            sid = plan.stages[1].input_shuffles[0].shuffle_id
            blocks = cluster.workers[holder].blocks
            blocks.put_map_output(77, sid, 0, {0: [(0, 1)]}, epoch=0)  # superseded
            blocks.put_map_output(77, sid, 1, {0: [(0, 2)]}, epoch=1)
            desc = TaskDescriptor(
                task_id=TaskId(77, 1, 0),
                plan=plan,
                map_locations={(sid, 0): holder, (sid, 1): holder},
                map_epochs={(sid, 0): 1, (sid, 1): 1},
            )
            received = []
            worker = cluster.workers[reader]
            real = worker._fetch_inputs

            def spy(d):
                received.append(d)
                return real(d)

            worker._fetch_inputs = spy
            reports = []
            cluster.driver.task_finished = reports.append
            cluster.transport.call(reader, "launch_tasks", [desc])
            assert wait_for(lambda: reports)
            assert received[0].map_epochs == {(sid, 0): 1, (sid, 1): 1}
            error = reports[0].error
            assert isinstance(error, FetchFailed)
            assert (error.shuffle_id, error.map_index) == (sid, 0)  # the stale one


# ----------------------------------------------------------------------
# Shared fetches: co-ready reducers, one round trip per worker pair
# ----------------------------------------------------------------------
def _keyed_group(batches=5, reducers=4):
    return [
        compile_plan(
            parallelize([(f"k{(b * 7 + i) % 11}", i) for i in range(40)], 4)
            .reduce_by_key(lambda a, b: a + b, reducers),
            collect_action(),
        )
        for b in range(batches)
    ]


class TestSharedFetch:
    """The reduce tasks one notification makes ready on a worker share
    one ``fetch_buckets`` per peer; failures stay per task."""

    @staticmethod
    def _run(mode, transport):
        with make_cluster(
            mode, workers=2, slots=2, transport=transport, group_size=5
        ) as cluster:
            results = cluster.run_group(_keyed_group())
            metrics = cluster.metrics
            return (
                results,
                metrics.counter(COUNT_NET_FETCH_BATCHES).value,
                metrics.counter(COUNT_RPC_MESSAGES).value,
            )

    def test_one_fetch_per_worker_pair_per_batch(self):
        reference, per_task_fetches, _ = self._run(SchedulingMode.PER_BATCH, "inproc")
        # The Spark baseline keeps one fetch per task: 4 reducers, each
        # with one remote peer, in each of 5 batches.
        assert per_task_fetches == 4 * 5
        rpc_counts = set()
        for transport in ["inproc"] * 5 + ["tcp"] * 5:
            results, fetches, rpcs = self._run(SchedulingMode.DRIZZLE, transport)
            # 2 workers -> 2 ordered worker pairs -> 2 fetches per batch.
            assert fetches == 2 * 5, transport
            assert results == reference, transport
            rpc_counts.add(rpcs)
        assert len(rpc_counts) == 1, rpc_counts

    def test_holder_lost_before_shared_fetch_fails_each_member(self):
        """The holder dies after its notifications and before the group's
        one fetch: every co-ready reducer reports its own FetchFailed,
        naming its own first map output on the holder, and the job
        recovers to the same output."""
        reference = self._run(SchedulingMode.PER_BATCH, "inproc")[0][0]
        (plan,) = _keyed_group(batches=1)
        with make_cluster(
            SchedulingMode.DRIZZLE, workers=2, slots=2, transport="inproc"
        ) as cluster:
            reader = cluster.workers["worker-0"]
            holder = "worker-1"
            expected = {}
            real_pull = reader._pull

            def pull(job_id, plans):
                if len(plans) > 1 and not expected:
                    for fetch_plan in plans:
                        expected[fetch_plan.partition] = fetch_plan.by_peer[holder][0]
                    cluster.kill_worker(holder)
                return real_pull(job_id, plans)

            reader._pull = pull
            reports = []
            real_finished = cluster.driver.task_finished

            def finished(report):
                reports.append(report)
                return real_finished(report)

            cluster.driver.task_finished = finished
            assert cluster.run_plan(plan) == reference
        assert len(expected) == 2
        failed = {
            r.task_id.partition: r.error
            for r in reports
            if r.worker_id == "worker-0" and not r.succeeded
        }
        assert set(failed) == set(expected)
        for partition, err in failed.items():
            assert isinstance(err, FetchFailed)
            assert (err.shuffle_id, err.map_index) == expected[partition]
            assert err.worker_id == holder

    @pytest.mark.parametrize("packed", [False, True], ids=["objects", "packed"])
    def test_missing_entry_fails_only_its_member(self, packed, monkeypatch):
        """One coalesced reply, one ``missing`` entry: the member it
        belongs to fails naming that map output, its sibling succeeds —
        also when the reply comes packed per member, as over a wire."""
        transport, driver, workers, plan, sid = _shuffle_fixture(2, maps=2, reducers=2)
        monkeypatch.setattr(transport, "serializes", packed)
        w0, w1 = workers
        try:
            w1.blocks.put_map_output(0, sid, 0, {0: [("a", 1)], 1: [("b", 1)]})
            w1.blocks.put_map_output(0, sid, 1, {0: [("a", 2)], 1: [("b", 2)]})
            deps = frozenset((sid, m) for m in range(2))
            ok, stale = (
                TaskDescriptor(
                    task_id=TaskId(0, 1, p),
                    plan=plan,
                    pre_scheduled=True,
                    deps=deps,
                    # Reducer 1 requires a newer attempt of map 1 than w1
                    # holds: its entry in the shared reply is missing.
                    map_epochs={(sid, 1): 5} if p else {},
                )
                for p in range(2)
            )
            w0.launch_tasks([ok, stale])
            w0.notify_output(0, sid, 0, "w1")
            w0.notify_output(0, sid, 1, "w1")  # wakes both: one group
            assert wait_for(lambda: len(driver.reports) == 2)
            by_partition = {r.task_id.partition: r for r in driver.reports}
            assert by_partition[0].succeeded
            assert by_partition[0].result == [("a", 3)]
            err = by_partition[1].error
            assert isinstance(err, FetchFailed)
            assert (err.shuffle_id, err.map_index, err.worker_id) == (sid, 1, "w1")
            assert w0.metrics.counter(COUNT_NET_FETCH_BATCHES).value == 1
            assert w0.metrics.histogram(HIST_NET_BUCKETS_PER_FETCH).snapshot() == [4.0]
        finally:
            for w in workers:
                w.shutdown()
