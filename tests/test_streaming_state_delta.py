"""Incremental checkpoints: one state store, one cursor, delta journal.

A :class:`StateStore` tracks which keys changed.  The checkpoint cursor
lets ``snapshot()`` deep-copy only those keys and lets the journal record
only the delta.  The property test interleaves every operation that can
change state — including in-place mutation through references handed out
by ``get``/``items`` and merges that mutate the old value — and checks,
after every step, against a model kept by hand:

* every snapshot equals a deep copy of the live state and never changes
  afterwards;
* replaying the WAL at every prefix — including prefixes cut after a
  compaction, and torn tails — yields the last journaled checkpoint.
"""

import ast
import copy
import os
import pathlib
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import EngineConf, HaConf, TracingConf
from repro.common.metrics import COUNT_CHECKPOINT_KEYS_COPIED
from repro.engine.cluster import LocalCluster
from repro.ha.journal import ControlJournal
from repro.ha.wal import LOG_NAME, SNAPSHOT_NAME, WriteAheadLog
from repro.obs.names import SPAN_CHECKPOINT
from repro.streaming import EpochFencedSink, FixedBatchSource, StreamingContext
from repro.streaming import state as state_module
from repro.streaming.state import StateStore

STORE = "s"
KEYS = [f"k{i}" for i in range(4)]

mutable_values = st.lists(st.integers(0, 9), max_size=3)
values = st.one_of(
    st.integers(0, 9),
    mutable_values,
    mutable_values,  # twice: in-place changes need mutable values to act on
    st.tuples(st.integers(0, 9), st.text("ab", max_size=2)),
)
keys = st.sampled_from(KEYS)
ops = st.one_of(
    st.tuples(st.just("put"), keys, values),
    st.tuples(
        st.just("update_many"),
        st.dictionaries(keys, values, max_size=4),
        st.sampled_from(["new", "in_place"]),
    ),
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("get_mutate"), keys),
    st.tuples(st.just("items_mutate")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("group_commit")),
    st.tuples(st.just("restore"), st.integers(0, 1000)),
)


def merge_new(old, new):
    """A merge that builds a fresh value."""
    if isinstance(old, int) and isinstance(new, int):
        return old + new
    return [old, new]


def merge_in_place(old, new):
    """A merge that mutates the old value in place and returns it."""
    if isinstance(old, list):
        old.append(new)
        return old
    return merge_new(old, new)


def mutate(value):
    """The in-place change a caller makes to a value it was handed."""
    if isinstance(value, list):
        value.append(7)


class WalPrefixes:
    """Copies of the WAL directory after every append, each paired with
    the checkpoint a replay of it must produce."""

    def __init__(self, wal_dir):
        self.wal_dir = wal_dir
        self.points = []

    def _read(self, name):
        path = os.path.join(self.wal_dir, name)
        if not os.path.exists(path):
            return b""
        with open(path, "rb") as f:
            return f.read()

    def capture(self, expected):
        self.points.append(
            (self._read(SNAPSHOT_NAME), self._read(LOG_NAME), copy.deepcopy(expected))
        )

    def check_all(self):
        with tempfile.TemporaryDirectory() as scratch:
            for i, (snap, log, expected) in enumerate(self.points):
                assert self._replay(scratch, snap, log) == expected, f"prefix {i}"
                if i + 1 < len(self.points):
                    next_snap, next_log, _ = self.points[i + 1]
                    if next_snap == snap and len(next_log) > len(log) + 1:
                        # The next record torn mid-write: dropped on replay.
                        torn = next_log[: len(log) + (len(next_log) - len(log)) // 2]
                        assert self._replay(scratch, snap, torn) == expected, (
                            f"torn tail after prefix {i}"
                        )

    @staticmethod
    def _replay(scratch, snap, log):
        for name, data in ((SNAPSHOT_NAME, snap), (LOG_NAME, log)):
            path = os.path.join(scratch, name)
            if data:
                with open(path, "wb") as f:
                    f.write(data)
            elif os.path.exists(path):
                os.remove(path)
        checkpoint = ControlJournal.recover(scratch).checkpoint
        return None if checkpoint is None else checkpoint["state_snapshots"]


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(ops, min_size=15, max_size=60))
def test_any_interleaving_matches_the_deep_copy_reference(steps):
    store = StateStore(STORE)
    live = {}  # the store's contents kept by hand
    snapshots = []  # (returned snapshot, deep copy taken at the time)
    journaled = None  # what the last checkpoint record must replay to
    with tempfile.TemporaryDirectory() as wal_dir:
        journal = ControlJournal(wal_dir)
        prefixes = WalPrefixes(wal_dir)
        prefixes.capture(journaled)
        batch = 0
        for step in steps:
            kind = step[0]
            if kind == "put":
                _, key, value = step
                store.put(key, value)
                live[key] = copy.deepcopy(value)
            elif kind == "update_many":
                _, updates, how = step
                merge = merge_new if how == "new" else merge_in_place
                store.update_many(updates, merge)
                for key, value in copy.deepcopy(updates).items():
                    live[key] = merge(live[key], value) if key in live else value
            elif kind == "delete":
                key = step[1]
                store.delete(key)
                live.pop(key, None)
            elif kind == "get_mutate":
                key = step[1]
                value = store.get(key)
                if key in live:
                    mutate(value)
                    mutate(live[key])
            elif kind == "items_mutate":
                for key, value in store.items():
                    mutate(value)
                    mutate(live[key])
            elif kind in ("snapshot", "checkpoint"):
                snap = store.snapshot()
                assert snap == live
                snapshots.append((snap, copy.deepcopy(snap)))
                if kind == "checkpoint":
                    delta = store.take_changes()
                    if delta is not None:
                        assert not set(delta["updates"]) & set(delta["deleted"])
                    journal.record_checkpoint(
                        batch,
                        batch + 1,
                        {STORE: snap} if delta is None else {},
                        state_deltas={} if delta is None else {STORE: delta},
                    )
                    journaled = {STORE: copy.deepcopy(live)}
                    prefixes.capture(journaled)
            elif kind == "group_commit":
                journal.record_group_commit([batch])
                batch += 1
                prefixes.capture(journaled)
                # Compaction by size: after a group commit the tail is no
                # larger than the snapshot it replays on top of.
                snapshot, tail, _ = prefixes.points[-1]
                assert len(tail) <= len(snapshot)
            elif kind == "restore":
                source = snapshots[step[1] % len(snapshots)][0] if snapshots else {}
                store.restore(source)
                live = copy.deepcopy(source)
            # No earlier snapshot ever moves, whatever happened since.
            for snap, frozen in snapshots:
                assert snap == frozen
        journal.close()
        prefixes.check_all()


class TestCursors:
    def test_state_store_is_the_one_store_class(self):
        assert not hasattr(state_module, "ShardedStateStore")
        source = pathlib.Path(__file__).resolve().parent.parent / "src/repro/streaming/state.py"
        classes = [
            node.name
            for node in ast.parse(source.read_text()).body
            if isinstance(node, ast.ClassDef)
        ]
        assert [name for name in classes if name.endswith("StateStore")] == ["StateStore"]

    def test_snapshots_copy_only_changed_keys(self):
        store = StateStore(STORE)
        for key in KEYS:
            store.put(key, [0])
        first = store.snapshot()
        assert store.take_changes() is None  # the first snapshot is a full base
        store.put("k0", [1])
        store.delete("k1")
        second = store.snapshot()
        assert store.take_changes() == {"updates": {"k0": [1]}, "deleted": ["k1"]}
        # Unchanged values are the same read-only copies, never re-copied...
        assert second["k2"] is first["k2"]
        # ...and never the live objects.
        assert second["k2"] is not store.get("k2")

    def test_atoms_handed_out_stay_clean(self):
        store = StateStore(STORE)
        store.put("i", 1)
        store.put("t", ("a", (1, 2.0, None)))
        store.put("l", [1])
        store.snapshot()
        store.take_changes()
        store.get("i")
        store.get("t")
        store.items()
        store.snapshot()
        assert store.take_changes() == {"updates": {"l": [1]}, "deleted": []}

    def test_changes_accumulate_until_taken(self):
        store = StateStore(STORE)
        store.put("a", 1)
        store.snapshot()
        store.take_changes()
        store.put("b", 2)
        store.snapshot()
        store.put("c", 3)
        store.snapshot()
        assert store.take_changes() == {"updates": {"b": 2, "c": 3}, "deleted": []}
        assert store.take_changes() == {"updates": {}, "deleted": []}

    def test_mutation_through_get_reaches_the_next_snapshot(self):
        store = StateStore(STORE)
        store.put("a", [1])
        store.snapshot()
        store.put("b", [2])
        second = store.snapshot()  # incremental: copies "b" only
        store.get("a").append(3)
        store.get("b").append(4)
        assert second == {"a": [1], "b": [2]}
        assert store.snapshot() == {"a": [1, 3], "b": [2, 4]}

    def test_a_key_deleted_then_put_back_between_takes_is_an_update(self):
        store = StateStore(STORE)
        store.put("a", 1)
        store.put("b", 2)
        store.snapshot()
        store.take_changes()
        store.delete("a")
        store.put("b", 3)
        store.snapshot()
        store.put("a", 4)
        store.delete("b")
        store.snapshot()
        assert store.take_changes() == {"updates": {"a": 4}, "deleted": ["b"]}

    def test_restore_starts_a_new_full_base(self):
        store = StateStore(STORE)
        store.put("a", 1)
        store.snapshot()
        store.take_changes()
        store.restore({"b": [2]})
        assert store.snapshot() == {"b": [2]}
        assert store.take_changes() is None


# ----------------------------------------------------------------------
# Journal records
# ----------------------------------------------------------------------
def _parent_checkpoint(batch_index, snapshots):
    """A ``checkpoint`` record exactly as journals written before deltas
    existed lay it out: every store whole, no ``state_deltas``."""
    return {
        "batch_index": batch_index,
        "next_batch": batch_index + 1,
        "state_snapshots": snapshots,
        "extra": {"next_batch": batch_index + 1},
    }


class TestJournal:
    def test_full_snapshot_records_replay_unchanged(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("session", {"epoch": 1})
        wal.append("checkpoint", _parent_checkpoint(0, {"s": {"a": 1, "b": [2]}}))
        wal.append("group_commit", {"batch_ids": [1], "job_keys": []})
        wal.append("checkpoint", _parent_checkpoint(1, {"s": {"a": 3}, "t": {}}))
        wal.close()
        recovered = ControlJournal.recover(str(tmp_path))
        assert recovered.checkpoint == {
            "batch_index": 1,
            "next_batch": 2,
            "state_snapshots": {"s": {"a": 3}, "t": {}},
            "extra": {"next_batch": 2},
        }
        assert recovered.session_epoch == 1
        assert recovered.committed_batches == frozenset({1})
        assert recovered.next_batch == 2

    def test_deltas_fold_onto_a_parent_full_record(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append("checkpoint", _parent_checkpoint(0, {"s": {"a": 1, "b": 2}}))
        wal.close()
        journal = ControlJournal(str(tmp_path))
        journal.record_checkpoint(
            1, 2, {}, state_deltas={"s": {"updates": {"c": 3}, "deleted": ["a"]}}
        )
        # No snapshot yet, so this compacts: the delta folds in.
        journal.record_group_commit([1])
        assert journal.wal.log_bytes == 0
        journal.record_checkpoint(
            2, 3, {}, state_deltas={"s": {"updates": {"b": 5}, "deleted": []}}
        )
        journal.close()
        recovered = ControlJournal.recover(str(tmp_path))
        assert recovered.checkpoint["state_snapshots"] == {"s": {"b": 5, "c": 3}}
        assert recovered.next_batch == 3

    def test_recovered_checkpoint_is_not_the_fold(self, tmp_path):
        journal = ControlJournal(str(tmp_path))
        journal.record_checkpoint(0, 1, {"s": {"a": 1}})
        journal.close()
        reopened = ControlJournal(str(tmp_path))
        recovered = reopened.recovered.checkpoint
        reopened.record_checkpoint(
            1, 2, {}, state_deltas={"s": {"updates": {"a": 9}, "deleted": []}}
        )
        reopened.close()
        assert recovered["state_snapshots"] == {"s": {"a": 1}}


# ----------------------------------------------------------------------
# The streaming context end to end
# ----------------------------------------------------------------------
BATCHES = [["a b a", "c a"], ["b b", "a c"], ["c d", "a"], ["e a", "c b"]]


def _build(cluster):
    ctx = StreamingContext(cluster, FixedBatchSource(BATCHES, 2), batch_interval_s=0.01)
    counts = ctx.state_store("counts")
    stream = (
        ctx.stream()
        .flat_map(lambda line: line.split())
        .map(lambda w: (w, 1))
        .reduce_by_key(lambda a, b: a + b)
    )
    stream.foreach_batch(
        lambda _b, records: counts.update_many(dict(records), lambda a, b: a + b)
    )
    return ctx, counts


class TestContext:
    def test_checkpoint_span_and_counter_show_the_delta(self):
        conf = EngineConf(
            num_workers=2, group_size=1, tracing=TracingConf(enabled=True)
        )
        with LocalCluster(conf) as cluster:
            ctx, counts = _build(cluster)
            ctx.run_batches(2)  # two groups, two checkpoints
            ctx.restore_and_replay()
            ctx.checkpoint()
            attrs = [
                e["attrs"] for e in cluster.tracer.events() if e["name"] == SPAN_CHECKPOINT
            ]
            assert [a["full"] for a in attrs] == [
                {"counts": True},
                {"counts": False},
                {"counts": True},  # the first checkpoint after a restore
            ]
            assert attrs[0]["keys_copied"] == {"counts": 3}  # a, b, c
            assert attrs[1]["keys_copied"] == {"counts": 3}  # batch 1 touched a, b, c
            assert attrs[1]["tombstones"] == {"counts": 0}
            assert attrs[2]["keys_copied"] == {"counts": len(counts)}
            total = sum(sum(a["keys_copied"].values()) for a in attrs)
            assert cluster.metrics.counters_snapshot()[COUNT_CHECKPOINT_KEYS_COPIED] == total

    def test_driver_job_accessors(self):
        with LocalCluster(EngineConf(num_workers=2, group_size=2)) as cluster:
            ctx, _ = _build(cluster)
            ctx.checkpoint = lambda: None  # keep every job alive
            ctx.run_batches(4)
            driver = cluster.driver
            ids = {key: driver.job_id_for((0, key)) for key in range(4)}
            assert None not in ids.values()
            assert driver.job_id_for((0, 99)) is None
            assert sorted(driver.job_ids_through(1)) == sorted([ids[0], ids[1]])
            assert sorted(driver.job_ids_through(3)) == sorted(ids.values())


class TestOwnContainers:
    """The journal's folded checkpoint, the checkpoint store and the
    restored store each own their dicts: a delta folded into one, or a
    mutation of another, moves nothing else."""

    def test_mutations_after_checkpoint_and_recover_move_nothing(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        conf = EngineConf(
            num_workers=2,
            group_size=2,
            ha=HaConf(enabled=True, wal_dir=wal_dir),
        )
        with LocalCluster(conf) as first:
            ctx, counts = _build(first)
            ctx.run_batches(2)  # one group -> the full base checkpoint
            cp = ctx.checkpoints.latest()
            cp_frozen = copy.deepcopy(cp.state_snapshots)
            folded = first.journal._state["checkpoint"]["state_snapshots"]
            assert folded["counts"] is not cp.state_snapshots["counts"]
            counts.put("a", 1000)
            counts.delete("b")
            ctx.checkpoint()  # a delta, folded into the journal's copy in place
            assert cp.state_snapshots == cp_frozen
            assert first.journal._state["checkpoint"]["state_snapshots"] == {
                "counts": dict(counts.items())
            }
            journaled = copy.deepcopy(first.journal._state["checkpoint"])

        second = LocalCluster.recover(wal_dir, EngineConf(num_workers=2, group_size=2))
        try:
            recovered = second.recovered_state
            assert recovered.checkpoint == journaled
            ctx2, counts2 = _build(second)
            ctx2.restore_from_recovery(recovered)
            seeded = ctx2.checkpoints.latest()
            fold = second.journal._state["checkpoint"]["state_snapshots"]
            for owner in (recovered.checkpoint["state_snapshots"], fold):
                assert owner["counts"] is not seeded.state_snapshots["counts"]
            counts2.put("a", -1)
            counts2.put("z", 1)
            ctx2.checkpoint()  # full base after the restore
            counts2.put("z", 2)
            counts2.delete("c")
            ctx2.checkpoint()  # a delta folded into the new journal copy
            assert recovered.checkpoint == journaled
            assert seeded.state_snapshots == journaled["state_snapshots"]
            final = ControlJournal.recover(wal_dir).checkpoint["state_snapshots"]
            assert final == {"counts": dict(counts2.items())}
        finally:
            second.shutdown()

    def test_recovery_is_exactly_once_with_delta_checkpoints(self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with LocalCluster(EngineConf(num_workers=2)) as cluster:
            ctx, counts = _build(cluster)
            ctx.run_batches(len(BATCHES))
            expected = sorted(counts.items())
        conf = EngineConf(
            num_workers=2,
            group_size=1,
            ha=HaConf(enabled=True, wal_dir=wal_dir),
        )
        sink = EpochFencedSink()
        with LocalCluster(conf) as first:
            ctx1, _ = _build(first)
            ctx1.stream().foreach_batch(
                lambda b, recs: sink.commit(b, sorted(recs), epoch=first.driver.session_epoch)
            )
            ctx1.run_batches(3)  # three checkpoints: full, delta, delta
        second = LocalCluster.recover(wal_dir, EngineConf(num_workers=2, group_size=1))
        try:
            sink.adopt_epoch(second.driver.session_epoch)
            sink.restore_ledger(sorted(second.recovered_state.committed_batches))
            ctx2, counts2 = _build(second)
            ctx2.stream().foreach_batch(
                lambda b, recs: sink.commit(b, sorted(recs), epoch=second.driver.session_epoch)
            )
            resume_at = ctx2.restore_from_recovery(second.recovered_state)
            assert resume_at == 3
            ctx2.run_batches(len(BATCHES) - resume_at)
            assert sorted(counts2.items()) == expected
            assert sink.committed_batches() == list(range(len(BATCHES)))
            assert sink.duplicate_commits == 0
        finally:
            second.shutdown()
