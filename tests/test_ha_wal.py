"""Tests for the control-plane WAL (repro.ha.wal) and journal fold.

The properties that matter for crash recovery:

* append → read roundtrip preserves records in order;
* a torn tail (truncated or corrupted final record) is dropped cleanly —
  the intact prefix replays, nothing raises (property-tested over every
  truncation point and random corruptions);
* snapshot compaction keeps replay O(live state): after compaction the
  log is empty and the snapshot alone reproduces the folded state, and
  after every group commit the tail is no larger than the snapshot;
* every append is fsynced before it returns;
* a journal in the older record layout (``job`` records, extra
  ``group_commit`` keys, retired snapshot keys) replays to the same
  recovered state, and the next compaction drops the retired keys.
"""

import random

import pytest

from repro.common.config import EngineConf
from repro.common.metrics import (
    COUNT_HA_WAL_APPENDS,
    COUNT_HA_WAL_FSYNCS,
    COUNT_HA_WAL_SNAPSHOTS,
    MetricsRegistry,
)
from repro.dag.dataset import parallelize
from repro.dag.plan import collect_action, compile_plan
from repro.engine.cluster import LocalCluster
from repro.ha.journal import ControlJournal
from repro.ha.wal import (
    HEADER,
    LOG_NAME,
    SNAPSHOT_NAME,
    WriteAheadLog,
    encode_record,
    load_wal,
    read_wal_records,
)


class TestWalRoundtrip:
    def test_append_read_roundtrip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("session", {"epoch": 1})
        wal.append("membership", {"workers": ["w0", "w1"]})
        wal.append("group_commit", {"batch_ids": [0, 1, 2]})
        wal.close()
        records, dropped = read_wal_records(str(tmp_path / LOG_NAME))
        assert dropped == 0
        assert [(r.record_type, r.payload) for r in records] == [
            ("session", {"epoch": 1}),
            ("membership", {"workers": ["w0", "w1"]}),
            ("group_commit", {"batch_ids": [0, 1, 2]}),
        ]

    def test_missing_log_is_empty_not_error(self, tmp_path):
        assert read_wal_records(str(tmp_path / "absent.log")) == ([], 0)
        snapshot, tail, stats = load_wal(str(tmp_path / "nowhere"))
        assert snapshot is None and tail == []
        assert stats["records_replayed"] == 0

    def test_every_append_is_fsynced(self, tmp_path):
        metrics = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path), metrics=metrics)
        for n, kind in enumerate(["session", "membership", "group_commit"], 1):
            wal.append(kind, {"n": n})
            assert metrics.counter(COUNT_HA_WAL_APPENDS).value == n
            assert metrics.counter(COUNT_HA_WAL_FSYNCS).value == n
            # Flushed, not buffered: the record is in the file already.
            assert (tmp_path / LOG_NAME).stat().st_size == wal.log_bytes
        wal.compact({"epoch": 1})
        # Compaction syncs its own files; it is no append.
        assert metrics.counter(COUNT_HA_WAL_FSYNCS).value == 3
        wal.close()

    def test_compaction_truncates_log_and_persists_state(self, tmp_path):
        metrics = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path), metrics=metrics)
        for i in range(4):
            wal.append("group_commit", {"batch_ids": [i]})
        wal.compact({"epoch": 4, "committed_batches": {0, 1}})
        assert (tmp_path / LOG_NAME).stat().st_size == 0 == wal.log_bytes
        assert (tmp_path / SNAPSHOT_NAME).stat().st_size == wal.snapshot_bytes
        assert metrics.counter(COUNT_HA_WAL_SNAPSHOTS).value == 1
        wal.append("group_commit", {"batch_ids": [9]})
        wal.close()
        snapshot, tail, _stats = load_wal(str(tmp_path))
        assert snapshot == {"epoch": 4, "committed_batches": {0, 1}}
        assert [r.payload["batch_ids"] for r in tail] == [[9]]
        # A reopened log knows both sizes from the files.
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.log_bytes == (tmp_path / LOG_NAME).stat().st_size > 0
        assert reopened.snapshot_bytes == (tmp_path / SNAPSHOT_NAME).stat().st_size
        reopened.close()


class TestTornTail:
    def _write_log(self, tmp_path, n=5):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(n):
            wal.append("group_commit", {"batch_ids": [i], "pad": "x" * 40})
        wal.close()
        return tmp_path / LOG_NAME

    def test_every_truncation_point_drops_only_the_tail(self, tmp_path):
        """Property: for EVERY prefix length of a valid log, decode yields
        some prefix of the records and never raises — a torn final record
        cannot poison replay."""
        log = self._write_log(tmp_path)
        data = log.read_bytes()
        # Record boundaries, for checking how many records must survive.
        boundaries = [0]
        off = 0
        while off < len(data):
            _m, _v, _t, length, _c = HEADER.unpack_from(data, off)
            off += HEADER.size + length
            boundaries.append(off)
        for cut in range(len(data) + 1):
            log.write_bytes(data[:cut])
            records, dropped = read_wal_records(str(log))
            complete = sum(1 for b in boundaries[1:] if b <= cut)
            assert len(records) == complete, f"cut at {cut}"
            assert [r.payload["batch_ids"] for r in records] == [
                [i] for i in range(complete)
            ]
            if cut != boundaries[complete]:
                assert dropped > 0

    @pytest.mark.parametrize("seed", range(8))
    def test_random_corruption_in_final_record_is_dropped(self, tmp_path, seed):
        log = self._write_log(tmp_path)
        data = bytearray(log.read_bytes())
        rng = random.Random(seed)
        # Flip one byte inside the final record (header or payload).
        off = 0
        while True:
            _m, _v, _t, length, _c = HEADER.unpack_from(data, off)
            nxt = off + HEADER.size + length
            if nxt >= len(data):
                break
            off = nxt
        pos = rng.randrange(off, len(data))
        data[pos] ^= 0xFF
        log.write_bytes(bytes(data))
        records, _dropped = read_wal_records(str(log))
        # At least the intact prefix; never more than written; no raise.
        assert 4 <= len(records) <= 5
        assert [r.payload["batch_ids"] for r in records[:4]] == [[i] for i in range(4)]

    def test_garbage_length_does_not_overread(self, tmp_path):
        log = tmp_path / LOG_NAME
        framed = encode_record("session", {"epoch": 1})
        # A header claiming a huge payload with nothing behind it.
        bogus = HEADER.pack(b"RW", 1, 1, 1 << 29, 0)
        log.write_bytes(framed + bogus)
        records, dropped = read_wal_records(str(log))
        assert len(records) == 1
        assert dropped == len(bogus)

    def test_torn_tail_then_journal_replay(self, tmp_path):
        """The journal folds the intact prefix and a new session can be
        opened on top of a torn log."""
        journal = ControlJournal(str(tmp_path))
        epoch = journal.open_session()
        journal.record_membership(["w0"])
        journal.record_group_commit([0, 1])
        journal.record_membership(["w0", "w1"])
        journal.close()
        log = tmp_path / LOG_NAME
        data = log.read_bytes()
        log.write_bytes(data[:-7])  # tear mid-final-record
        reopened = ControlJournal(str(tmp_path))
        assert reopened.recovered.session_epoch == epoch
        assert reopened.open_session() == epoch + 1
        reopened.close()

    def test_oversized_record_rejected_at_encode(self):
        from repro.common.errors import CheckpointError

        with pytest.raises(CheckpointError):
            encode_record("blob", {"data": b"x" * ((1 << 30) + 1)})


class TestJournalFold:
    def test_fold_reproduces_control_state(self, tmp_path):
        journal = ControlJournal(str(tmp_path))
        journal.open_session()
        journal.record_membership(["w0", "w1"])
        journal.record_group_commit([0, 1])
        journal.record_checkpoint(1, 2, {"counts": {"a": 4}}, extra={"next_batch": 2})
        # A record type this reader no longer writes (an elastic shard-map
        # flip from older journals) folds to nothing: replay still works.
        journal.wal.append("shard_map", {"shard_map": {"counts": [[0, 64]]}})
        journal.close()

        state = ControlJournal.recover(str(tmp_path))
        assert state.session_epoch == 1
        assert state.workers == ["w0", "w1"]
        assert state.committed_batches == frozenset({0, 1})
        assert state.checkpoint["state_snapshots"] == {"counts": {"a": 4}}
        assert state.next_batch == 2
        assert not hasattr(state, "shard_map")

    def test_compaction_preserves_fold(self, tmp_path):
        journal = ControlJournal(str(tmp_path))
        journal.open_session()
        journal.record_membership(["w0"])
        for g in range(12):
            journal.record_checkpoint(g, g + 1, {"s": {f"k{g}": "x" * 40}})
            journal.record_group_commit([g])
            # Replay cost is O(live state): after every group commit the
            # tail is no larger than the snapshot it replays on top of.
            log_size = (tmp_path / LOG_NAME).stat().st_size
            assert log_size <= (tmp_path / SNAPSHOT_NAME).stat().st_size
        journal.close()
        state = ControlJournal.recover(str(tmp_path))
        assert state.committed_batches == frozenset(range(12))
        assert state.workers == ["w0"]
        assert state.checkpoint["state_snapshots"] == {"s": {"k11": "x" * 40}}
        assert state.replay_stats["snapshot_loaded"] == 1

    def test_every_append_synced_and_every_group_commit_bounds_the_tail(self, tmp_path):
        metrics = MetricsRegistry()
        appends = metrics.counter(COUNT_HA_WAL_APPENDS)
        fsyncs = metrics.counter(COUNT_HA_WAL_FSYNCS)
        journal = ControlJournal(str(tmp_path), metrics=metrics)
        journal.open_session()
        journal.record_membership(["w0", "w1"])
        journal.record_checkpoint(0, 1, {"s": {f"k{i}": i for i in range(50)}})
        assert fsyncs.value == appends.value == 3
        for g in range(1, 30):
            journal.record_group_commit([g])
            log_size = (tmp_path / LOG_NAME).stat().st_size
            assert log_size <= (tmp_path / SNAPSHOT_NAME).stat().st_size
            journal.record_checkpoint(
                g, g + 1, {}, state_deltas={"s": {"updates": {f"k{g}": -g}, "deleted": []}}
            )
            assert fsyncs.value == appends.value
        journal.close()
        # Compaction follows the tail's size: repeatedly, not at every group.
        assert 2 <= metrics.counter(COUNT_HA_WAL_SNAPSHOTS).value < 29

    def test_parent_format_journal_replays_to_the_same_state(self, tmp_path):
        """A journal in the layout written before ``job`` records and the
        extra ``group_commit`` keys were retired: its snapshot carries
        ``jobs`` and ``last_group``, its tail ``job`` records.  Both
        recovery entry points read the same state from it, and the next
        compaction drops the retired keys."""
        checkpoint = {
            "batch_index": 1,
            "next_batch": 2,
            "state_snapshots": {"counts": {"a": 3, "b": 1}},
            "extra": {"next_batch": 2},
        }
        (tmp_path / SNAPSHOT_NAME).write_bytes(
            encode_record(
                "snapshot",
                {
                    "epoch": 1,
                    "workers": ["worker-0", "worker-1"],
                    "jobs": {"submitted": 4, "completed": 4, "open": []},
                    "committed_batches": {0, 1},
                    "last_group": {
                        "batch_ids": [0, 1],
                        "locations_digest": "5f0c",
                        "sink_hwm": [0, 1],
                    },
                    "checkpoint": checkpoint,
                },
            )
        )
        wal = WriteAheadLog(str(tmp_path))
        for batch in (2, 3):
            wal.append("job", {"event": "submitted", "job_id": batch, "key": (0, batch)})
        for batch in (2, 3):
            wal.append("job", {"event": "completed", "job_id": batch, "key": (0, batch)})
        wal.append(
            "group_commit",
            {
                "batch_ids": [2, 3],
                "locations_digest": "9a7e",
                "sink_hwm": [2, 3],
                "job_keys": [(0, 2), (0, 3)],
            },
        )
        wal.append(
            "checkpoint",
            {
                "batch_index": 3,
                "next_batch": 4,
                "state_snapshots": {},
                "extra": {"next_batch": 4},
                "state_deltas": {"counts": {"updates": {"c": 2}, "deleted": ["b"]}},
            },
        )
        wal.append("job", {"event": "submitted", "job_id": 4, "key": (0, 4)})
        wal.close()

        expected_checkpoint = {
            "batch_index": 3,
            "next_batch": 4,
            "state_snapshots": {"counts": {"a": 3, "c": 2}},
            "extra": {"next_batch": 4},
        }
        replayed = ControlJournal.recover(str(tmp_path))
        with LocalCluster.recover(str(tmp_path), EngineConf(num_workers=2)) as cluster:
            for state in (replayed, cluster.recovered_state):
                assert state.session_epoch == 1
                assert state.workers == ["worker-0", "worker-1"]
                assert state.committed_batches == frozenset({0, 1, 2, 3})
                assert state.checkpoint == expected_checkpoint
                assert state.next_batch == 4
            cluster.journal.record_group_commit([4])
            assert cluster.journal.wal.log_bytes == 0  # the tail outgrew the snapshot
        snapshot, tail, _stats = load_wal(str(tmp_path))
        assert tail == []
        assert set(snapshot) == {"epoch", "workers", "committed_batches", "checkpoint"}
        assert snapshot["epoch"] == 2
        assert snapshot["committed_batches"] == {0, 1, 2, 3, 4}
        assert snapshot["checkpoint"] == expected_checkpoint

    def test_membership_record_with_retired_key_replays(self, tmp_path):
        """A journal written before execution templates were removed
        carries a template epoch in every membership record.  The fold
        reads only the worker set, and a cluster recovers from it."""
        retired_key = "template" "_epoch"  # split: a grep for it stays empty
        wal = WriteAheadLog(str(tmp_path))
        wal.append("session", {"epoch": 1})
        wal.append("membership", {"workers": ["worker-0", "worker-1"], retired_key: 3})
        wal.append("group_commit", {"batch_ids": [0, 1], "sink_hwm": [0, 1]})
        wal.close()

        state = ControlJournal.recover(str(tmp_path))
        assert state.workers == ["worker-0", "worker-1"]
        assert state.committed_batches == frozenset({0, 1})
        assert not hasattr(state, retired_key)

        with LocalCluster.recover(str(tmp_path), EngineConf(num_workers=2)) as cluster:
            recovered = cluster.recovered_state
            assert recovered.workers == ["worker-0", "worker-1"]
            assert recovered.session_epoch == 1
            assert cluster.driver.session_epoch == 2
            result = cluster.run_plan(
                compile_plan(parallelize(range(10), 2).map(lambda x: x * 2), collect_action())
            )
            assert sorted(result) == [x * 2 for x in range(10)]
        # The new session journals membership without the retired key.
        records, _ = read_wal_records(str(tmp_path / LOG_NAME))
        fresh = [r for r in records if r.record_type == "membership"][-1]
        assert set(fresh.payload) == {"workers"}

    def test_unknown_record_type_is_skipped(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("session", {"epoch": 2})
        wal.append("from_the_future", {"anything": True})
        wal.close()
        state = ControlJournal.recover(str(tmp_path))
        assert state.session_epoch == 2

    def test_epoch_monotonic_across_sessions(self, tmp_path):
        epochs = []
        for _ in range(3):
            journal = ControlJournal(str(tmp_path))
            epochs.append(journal.open_session())
            journal.close()
        assert epochs == [1, 2, 3]
