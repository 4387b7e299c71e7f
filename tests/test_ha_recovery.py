"""Driver crash-restart recovery (repro.ha): WAL replay → resumed stream.

The acceptance property from the paper's §3.3 fault-tolerance argument,
extended to the *control plane*: a driver killed at any journaled
transition point recovers from its WAL to results byte-identical to an
uninterrupted run, with zero duplicated sink emissions — and a crash-free
run with HA enabled costs ±0 engine messages versus HA disabled.
"""

import pytest

from repro.common.config import EngineConf, HaConf, TransportConf
from repro.common.metrics import (
    COUNT_HA_WAL_APPENDS,
    COUNT_HA_WAL_FSYNCS,
    COUNT_RPC_MESSAGES,
)
from repro.engine.cluster import LocalCluster
from repro.streaming import EpochFencedSink, FixedBatchSource, StreamingContext

BATCHES = [
    ["a b a", "c a"],
    ["b b", "a c"],
    ["c c c", "a"],
    ["b a", "c b"],
    ["a a", "b c"],
    ["c", "a b"],
]


def _build(cluster, sink):
    ctx = StreamingContext(
        cluster, FixedBatchSource(BATCHES, 2), batch_interval_s=0.01
    )
    counts = ctx.state_store("counts")
    stream = (
        ctx.stream()
        .flat_map(lambda line: line.split())
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
    )

    def deliver(batch_id, records):
        counts.update_many(dict(records), lambda a, b: a + b)
        sink.commit(batch_id, sorted(records), epoch=cluster.driver.session_epoch)

    ctx.register_output(stream, deliver)
    return ctx, counts


def _baseline():
    sink = EpochFencedSink()
    with LocalCluster(EngineConf(num_workers=2)) as cluster:
        ctx, counts = _build(cluster, sink)
        ctx.run_batches(len(BATCHES))
        return sorted(counts.items()), sink.all_records()


class TestCrashRestartRecovery:
    @pytest.mark.parametrize("crash_after", [1, 3, 5])
    def test_recovers_to_byte_identical_results(self, tmp_path, crash_after):
        expected_state, _ = _baseline()
        wal_dir = str(tmp_path / "wal")
        conf = EngineConf(
            num_workers=2,
            ha=HaConf(enabled=True, wal_dir=wal_dir),
        )
        sink = EpochFencedSink()
        with LocalCluster(conf) as first:
            ctx1, _ = _build(first, sink)
            ctx1.run_batches(crash_after)
            if crash_after >= 3:
                ctx1.checkpoint()
        # "Crash": the first incarnation is gone; only the WAL survives.
        second = LocalCluster.recover(wal_dir, EngineConf(num_workers=2))
        try:
            assert second.driver.session_epoch == 2  # fenced restart
            recovered = second.recovered_state
            assert recovered.session_epoch == 1
            assert set(recovered.committed_batches) == set(range(crash_after))
            sink.adopt_epoch(second.driver.session_epoch)
            sink.restore_ledger(sorted(recovered.committed_batches))
            ctx2, counts = _build(second, sink)
            resume_at = ctx2.restore_from_recovery(recovered)
            assert resume_at <= crash_after
            ctx2.run_batches(len(BATCHES) - resume_at)
            assert sorted(counts.items()) == expected_state
            # Zero double-emissions: every batch committed exactly once
            # for real; recommits of already-delivered batches were no-ops.
            assert sink.committed_batches() == list(range(len(BATCHES)))
            assert sink.fenced_commits == 0
        finally:
            second.shutdown()

    def test_recovery_without_checkpoint_replays_from_zero(self, tmp_path):
        expected_state, _ = _baseline()
        wal_dir = str(tmp_path / "wal")
        conf = EngineConf(num_workers=2, ha=HaConf(enabled=True, wal_dir=wal_dir))
        sink = EpochFencedSink()
        with LocalCluster(conf) as first:
            ctx1, _ = _build(first, sink)
            ctx1.run_batches(2)  # no checkpoint taken before the crash
        second = LocalCluster.recover(wal_dir, EngineConf(num_workers=2))
        try:
            sink.adopt_epoch(second.driver.session_epoch)
            sink.restore_ledger(sorted(second.recovered_state.committed_batches))
            ctx2, counts = _build(second, sink)
            assert ctx2.restore_from_recovery(second.recovered_state) == 0
            ctx2.run_batches(len(BATCHES))
            assert sorted(counts.items()) == expected_state
            # Batches 0-1 were already emitted by the first incarnation:
            # their recommits deduplicated instead of double-emitting.
            assert sink.duplicate_commits == 2
        finally:
            second.shutdown()

    def test_journal_records_membership_and_commits(self, tmp_path):
        from repro.ha.journal import ControlJournal

        wal_dir = str(tmp_path / "wal")
        conf = EngineConf(num_workers=3, ha=HaConf(enabled=True, wal_dir=wal_dir))
        with LocalCluster(conf) as cluster:
            sink = EpochFencedSink()
            ctx, _ = _build(cluster, sink)
            ctx.run_batches(2)
            cluster.decommission_worker("worker-2")
            ctx.run_batches(1)
        state = ControlJournal.recover(wal_dir)
        assert state.workers == ["worker-0", "worker-1"]
        assert state.committed_batches == frozenset(range(3))

    def test_a_checkpointed_group_journals_two_synced_records(self, tmp_path):
        conf = EngineConf(
            num_workers=2,
            group_size=2,
            ha=HaConf(enabled=True, wal_dir=str(tmp_path / "wal")),
        )
        with LocalCluster(conf) as cluster:
            appends = cluster.metrics.counter(COUNT_HA_WAL_APPENDS)
            fsyncs = cluster.metrics.counter(COUNT_HA_WAL_FSYNCS)
            assert appends.value == 3  # the session and one membership per worker
            ctx, _ = _build(cluster, EpochFencedSink())
            ctx.run_batches(2)
            before = appends.value
            ctx.run_batches(4)  # two groups, each checkpointed at its boundary
            assert appends.value - before == 4  # a group_commit and a checkpoint each
            assert fsyncs.value == appends.value

    def test_recovered_cluster_keeps_journaling(self, tmp_path):
        """Recovery is not a one-shot: the restarted driver journals too,
        so a second crash recovers from the second incarnation's state."""
        wal_dir = str(tmp_path / "wal")
        conf = EngineConf(num_workers=2, ha=HaConf(enabled=True, wal_dir=wal_dir))
        sink = EpochFencedSink()
        with LocalCluster(conf) as first:
            ctx1, _ = _build(first, sink)
            ctx1.run_batches(2)
        second = LocalCluster.recover(wal_dir, EngineConf(num_workers=2))
        try:
            sink.adopt_epoch(second.driver.session_epoch)
            sink.restore_ledger(sorted(second.recovered_state.committed_batches))
            ctx2, _ = _build(second, sink)
            ctx2.restore_from_recovery(second.recovered_state)
            ctx2.run_batches(4 - ctx2.next_batch)
            ctx2.checkpoint()
        finally:
            second.shutdown()
        third = LocalCluster.recover(wal_dir, EngineConf(num_workers=2))
        try:
            assert third.driver.session_epoch == 3
            assert set(third.recovered_state.committed_batches) == set(range(4))
            assert third.recovered_state.next_batch == 4
        finally:
            third.shutdown()


class TestMessageParity:
    @pytest.mark.parametrize("backend", ["inproc", "tcp"])
    def test_crash_free_ha_run_costs_zero_extra_messages(self, tmp_path, backend):
        def run(ha_conf):
            conf = EngineConf(
                num_workers=2,
                transport=TransportConf(backend=backend),
                ha=ha_conf,
            )
            sink = EpochFencedSink()
            with LocalCluster(conf) as cluster:
                ctx, counts = _build(cluster, sink)
                ctx.run_batches(4)
                return (
                    sorted(counts.items()),
                    cluster.metrics.counter(COUNT_RPC_MESSAGES).value,
                )

        state_off, messages_off = run(HaConf(enabled=False))
        state_on, messages_on = run(
            HaConf(enabled=True, wal_dir=str(tmp_path / "wal"))
        )
        assert state_on == state_off
        assert messages_on == messages_off  # ±0: journaling is off-path
