"""End-to-end streaming tests: the job generator, group submission,
checkpointing, and exactly-once recovery (§3.3, §4)."""

import pytest

from repro.common.config import EngineConf, SchedulingMode, TransportConf, TunerConf
from repro.common.errors import StreamingError
from repro.common.metrics import COUNT_STAGE_CACHE_HIT, COUNT_STAGE_CACHE_MISS
from repro.engine.cluster import LocalCluster
from repro.streaming.context import StreamingContext
from repro.streaming.sinks import AppendSink, IdempotentSink
from repro.streaming.sources import FixedBatchSource, LogSource, RateSource, RecordLog

WORDS = ["a", "b", "c", "a", "b", "a"]


def word_batches(num_batches, n=30):
    return [
        [WORDS[(b + i) % len(WORDS)] for i in range(n)] for b in range(num_batches)
    ]


def expected_counts(batches):
    out = {}
    for batch in batches:
        for w in batch:
            out[w] = out.get(w, 0) + 1
    return out


def make_conf(mode=SchedulingMode.DRIZZLE, group_size=3, workers=3,
              checkpoint_interval_batches=0, tuner=None):
    return EngineConf(
        num_workers=workers,
        slots_per_worker=2,
        scheduling_mode=mode,
        group_size=group_size,
        checkpoint_interval_batches=checkpoint_interval_batches,
        tuner=tuner or TunerConf(),
    )


def make_fixed_ctx(batches, num_partitions=4, **conf_kwargs):
    cluster = LocalCluster(make_conf(**conf_kwargs))
    source = FixedBatchSource(batches, num_partitions)
    ctx = StreamingContext(cluster, source, batch_interval_s=0.05)
    return cluster, ctx


class TestBatchLoop:
    def test_word_count_state(self):
        batches = word_batches(6)
        cluster, ctx = make_fixed_ctx(batches)
        with cluster:
            store = ctx.state_store("counts")
            stream = ctx.stream().map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 3)
            stream.update_state(store, merge=lambda a, b: a + b)
            ctx.run_batches(6)
            assert dict(store.items()) == expected_counts(batches)
            assert ctx.next_batch == 6

    @pytest.mark.parametrize("mode", [SchedulingMode.PER_BATCH, SchedulingMode.DRIZZLE])
    def test_same_results_in_both_modes(self, mode):
        batches = word_batches(4)
        cluster, ctx = make_fixed_ctx(batches, mode=mode)
        with cluster:
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 3
            ).update_state(store, merge=lambda a, b: a + b)
            ctx.run_batches(4)
            assert dict(store.items()) == expected_counts(batches)

    def test_requires_output_op(self):
        cluster, ctx = make_fixed_ctx(word_batches(1))
        with cluster:
            with pytest.raises(StreamingError):
                ctx.run_batches(1)

    def test_negative_batches_rejected(self):
        cluster, ctx = make_fixed_ctx(word_batches(1))
        with cluster:
            ctx.stream().foreach_batch(lambda b, r: None)
            with pytest.raises(StreamingError):
                ctx.run_batches(-1)

    def test_batches_processed_in_groups(self):
        cluster, ctx = make_fixed_ctx(word_batches(8, n=4), group_size=4)
        with cluster:
            ctx.stream().foreach_batch(lambda b, r: None)
            ctx.run_batches(8)
            assert [g.batches for g in ctx.recent_groups] == [4, 4]
            assert [g.first_batch for g in ctx.recent_groups] == [0, 4]

    def test_final_partial_group(self):
        cluster, ctx = make_fixed_ctx(word_batches(5, n=2), group_size=3)
        with cluster:
            ctx.stream().foreach_batch(lambda b, r: None)
            ctx.run_batches(5)
            assert [g.batches for g in ctx.recent_groups] == [3, 2]

    def test_callbacks_delivered_in_batch_order(self):
        cluster, ctx = make_fixed_ctx(word_batches(5, n=2), group_size=5)
        with cluster:
            order = []
            ctx.stream().foreach_batch(lambda b, r: order.append(b))
            ctx.run_batches(5)
            assert order == [0, 1, 2, 3, 4]

    def test_multiple_output_ops(self):
        batches = word_batches(4, n=12)
        cluster, ctx = make_fixed_ctx(batches, group_size=2)
        with cluster:
            counts = ctx.state_store("counts")
            lengths = []
            keyed = ctx.stream().map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 2)
            keyed.update_state(counts, merge=lambda a, b: a + b)
            ctx.stream().foreach_batch(lambda b, records: lengths.append(len(records)))
            ctx.run_batches(4)
            assert dict(counts.items()) == expected_counts(batches)
            assert lengths == [12, 12, 12, 12]

    def test_sink_receives_batches(self):
        cluster, ctx = make_fixed_ctx(word_batches(3))
        with cluster:
            sink = IdempotentSink()
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 2
            ).sink_to(sink)
            ctx.run_batches(3)
            assert sink.committed_batches() == [0, 1, 2]

    def test_log_source_consumes_appended_data(self):
        """With a live RecordLog, each group consumes what arrived since
        the previous group (Kafka-direct-style)."""
        cluster = LocalCluster(make_conf(group_size=3))
        log = RecordLog(4)
        ctx = StreamingContext(cluster, LogSource(log), batch_interval_s=0.05)
        with cluster:
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 3
            ).update_state(store, merge=lambda a, b: a + b)
            total = 0
            for round_index in range(3):
                log.append_round_robin([WORDS[i % 6] for i in range(30)])
                total += 30
                ctx.run_batches(3)
            assert sum(v for _k, v in store.items()) == total


class TestCheckpointingAndRecovery:
    def test_checkpoint_at_group_boundaries(self):
        cluster, ctx = make_fixed_ctx(word_batches(6, n=3), group_size=3)
        with cluster:
            ctx.stream().foreach_batch(lambda b, r: None)
            ctx.run_batches(6)
            assert len(ctx.checkpoints) == 2
            assert ctx.checkpoints.latest().batch_index == 5

    def test_explicit_checkpoint_interval(self):
        cluster, ctx = make_fixed_ctx(
            word_batches(8, n=2), group_size=2, checkpoint_interval_batches=4
        )
        with cluster:
            ctx.stream().foreach_batch(lambda b, r: None)
            ctx.run_batches(8)
            assert len(ctx.checkpoints) == 2

    def test_restore_and_replay_exactly_once(self):
        """State loss + replay: state and sink output must be identical to
        the uninterrupted run (prefix integrity / exactly-once)."""
        batches = word_batches(9)
        cluster, ctx = make_fixed_ctx(
            batches, group_size=3, checkpoint_interval_batches=6
        )
        with cluster:
            store = ctx.state_store("counts")
            sink = IdempotentSink()
            stream = ctx.stream().map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 3)
            stream.update_state(store, merge=lambda a, b: a + b)
            stream.sink_to(sink)
            ctx.run_batches(9)
            baseline_state = dict(store.items())
            baseline_sink = sink.all_records()
            assert baseline_state == expected_counts(batches)
            # Simulate losing in-memory state: corrupt, then recover.
            store.restore({"corrupted": 999})
            replayed = ctx.restore_and_replay()
            assert replayed == 3  # batches 6..8 after the checkpoint at 5
            assert dict(store.items()) == baseline_state
            assert sink.all_records() == baseline_sink
            assert sink.duplicate_commits >= 3

    def test_append_sink_shows_duplicates_without_dedup(self):
        """Control experiment: a non-idempotent sink DOES see duplicates
        on replay — the dedup is what provides exactly-once."""
        cluster, ctx = make_fixed_ctx(
            word_batches(4, n=6), group_size=2, checkpoint_interval_batches=10
        )
        with cluster:
            store = ctx.state_store("counts")
            sink = AppendSink()
            stream = ctx.stream().map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 2)
            stream.update_state(store, merge=lambda a, b: a + b)
            stream.sink_to(sink)
            ctx.run_batches(4)
            n = len(sink.all_records())
            ctx.restore_and_replay()  # no checkpoint yet -> replays all 4
            assert len(sink.all_records()) == 2 * n

    def test_replay_with_no_batches_is_noop(self):
        cluster, ctx = make_fixed_ctx(word_batches(2, n=2), group_size=2)
        with cluster:
            ctx.stream().foreach_batch(lambda b, r: None)
            ctx.run_batches(2)  # checkpoint lands exactly at batch 1
            assert ctx.restore_and_replay() == 0

    def test_log_source_replay_reads_identical_data(self):
        """Replay through a LIVE log (new data arriving after the crash)
        must re-read exactly the original batch ranges."""
        cluster = LocalCluster(make_conf(group_size=2, checkpoint_interval_batches=10))
        log = RecordLog(2)
        ctx = StreamingContext(cluster, LogSource(log), batch_interval_s=0.05)
        with cluster:
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 2
            ).update_state(store, merge=lambda a, b: a + b)
            log.append_round_robin(["x"] * 10)
            ctx.run_batches(2)
            baseline = dict(store.items())
            # New data arrives AFTER the failure point...
            log.append_round_robin(["y"] * 10)
            store.restore({})
            ctx.restore_and_replay()
            # ...and must NOT leak into the replayed batches.
            assert dict(store.items()) == baseline

    def test_mid_stream_worker_failure_exactly_once(self):
        """Kill a machine while batches are flowing: engine-level recovery
        plus deterministic replay keep results exactly right."""
        import threading

        batches = word_batches(6)
        cluster, ctx = make_fixed_ctx(batches, group_size=3, workers=4)
        with cluster:
            store = ctx.state_store("counts")
            stream = ctx.stream().map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 3)
            stream.update_state(store, merge=lambda a, b: a + b)
            killer = threading.Timer(0.02, lambda: cluster.kill_worker("worker-1"))
            killer.start()
            ctx.run_batches(6)
            assert dict(store.items()) == expected_counts(batches)


class TestOverTcp:
    """Streams whose every launch crosses a real socket.  A stage blob is
    code only and each job's input rides in its descriptors, so a
    LogSource (its RecordLog holds a lock) streams over tcp, and after
    the first group every launch is token-only."""

    @staticmethod
    def tcp_conf(**kwargs):
        conf = make_conf(**kwargs)
        conf.transport = TransportConf(backend="tcp")
        return conf

    def test_log_source_over_tcp_matches_inproc(self):
        def run(conf):
            cluster = LocalCluster(conf)
            log = RecordLog(4)
            ctx = StreamingContext(cluster, LogSource(log), batch_interval_s=0.05)
            with cluster:
                store = ctx.state_store("counts")
                ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                    lambda a, b: a + b, 3
                ).update_state(store, merge=lambda a, b: a + b)
                for round_index in range(3):
                    log.append_round_robin(
                        [WORDS[(round_index + i) % 6] for i in range(30 + round_index)]
                    )
                    ctx.run_batches(3)
                return dict(store.items())

        inproc = make_conf(group_size=3)
        inproc.transport = TransportConf(backend="inproc")
        expected = run(inproc)
        assert sum(expected.values()) == 30 + 31 + 32
        assert run(self.tcp_conf(group_size=3)) == expected

    def test_stage_blob_cache_hits_after_the_first_group(self):
        conf = self.tcp_conf(group_size=4, workers=2)
        cluster = LocalCluster(conf)
        source = RateSource(
            lambda b, i: (f"k{i % 7}", b), records_per_batch=40, num_partitions=4
        )
        ctx = StreamingContext(cluster, source, batch_interval_s=0.05)
        with cluster:
            store = ctx.state_store("sums")
            ctx.stream().reduce_by_key(lambda a, b: a + b, 2).update_state(
                store, merge=lambda a, b: a + b
            )
            ctx.run_batches(4)  # one group: each worker is sent the blob once
            misses = cluster.metrics.counter(COUNT_STAGE_CACHE_MISS).value
            assert misses == len(cluster.workers)
            ctx.run_batches(40)
            assert cluster.metrics.counter(COUNT_STAGE_CACHE_MISS).value == misses
            assert cluster.metrics.counter(COUNT_STAGE_CACHE_HIT).value == 10 * len(
                cluster.workers
            )
            for worker in cluster.workers.values():
                assert len(worker.transport._stage_receiver) == len(ctx.output_ops)
            expected = {}
            for b in range(44):
                for i in range(40):
                    expected[f"k{i % 7}"] = expected.get(f"k{i % 7}", 0) + b
            assert dict(store.items()) == expected
            if conf.executor.backend == "process":
                # Every batch runs the worker's one decoded plan, so the
                # executor serializes each stage once, not once per batch.
                for worker in cluster.workers.values():
                    assert 1 <= worker._backend._token_seq <= 2


class TestTunerIntegration:
    def test_tuner_drives_group_size(self):
        tuner_conf = TunerConf(
            enabled=True,
            overhead_lower_bound=0.0001,
            overhead_upper_bound=0.001,
            max_group_size=8,
        )
        cluster, ctx = make_fixed_ctx(
            word_batches(20, n=2), group_size=1, tuner=tuner_conf
        )
        with cluster:
            ctx.stream().foreach_batch(lambda b, r: None)
            ctx.run_batches(20)
            # Coordination dominates these tiny batches, so the AIMD tuner
            # must have grown the group size.
            assert max(g.batches for g in ctx.recent_groups) > 1
            assert cluster.driver.tuner is not None
            assert len(cluster.driver.tuner.history) >= 2
