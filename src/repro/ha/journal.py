"""The control-plane journal: what the driver must remember to restart.

Every record folds deterministically into one live-state dict, so the
journal IS the fold — replay applies the same ``_fold`` the writer used,
and compaction just persists the folded dict.  Every record is fsynced
before its append returns.  Journaled transitions (the §3.3
group-boundary commit points):

* ``session`` — a new driver session epoch (the fencing token: it must
  never be resurrected lower).
* ``membership`` — the live worker set after a join/decommission.  Older
  records may carry extra keys; the fold reads only ``workers``.
* ``group_commit`` — one committed streaming group: its batch ids (the
  recovery line).  Older records may carry extra keys; the fold reads
  only ``batch_ids``.
* ``checkpoint`` — streaming checkpoint metadata plus the state-store
  contents needed to resume without re-running history.  A store is
  recorded whole (``state_snapshots``: a full base) or as the delta since
  its previous checkpoint record (``state_deltas``: ``{"updates",
  "deleted"}``).  The fold applies deltas to its own materialized copy,
  and compaction persists that copy, so compaction is the only place
  deltas fold into a full snapshot.  Records that carry only
  ``state_snapshots`` (every store whole) replay as before.

Record kinds this writer no longer emits (``job`` and ``shard_map`` in
older journals) fold to nothing, and snapshot keys the fold no longer
keeps (``jobs``, ``last_group``) are dropped on load.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.metrics import COUNT_HA_RECOVERIES
from repro.ha.wal import WalRecord, WriteAheadLog, load_wal


def _initial_state() -> Dict[str, Any]:
    return {
        "epoch": 0,
        "workers": [],
        "committed_batches": set(),
        "checkpoint": None,
    }


def _fold(state: Dict[str, Any], record: WalRecord) -> None:
    """Apply one journal record to the live-state dict (writer and
    replayer share this, so they cannot disagree)."""
    payload = record.payload
    rtype = record.record_type
    if rtype == "session":
        state["epoch"] = max(state["epoch"], int(payload["epoch"]))
    elif rtype == "membership":
        state["workers"] = list(payload["workers"])
    elif rtype == "group_commit":
        state["committed_batches"].update(payload["batch_ids"])
    elif rtype == "checkpoint":
        previous = state["checkpoint"]
        prior = previous["state_snapshots"] if previous is not None else {}
        # The fold owns its containers: a full base is copied, never kept
        # by reference, because later deltas are applied to it in place.
        snapshots = {
            name: dict(full) for name, full in payload.get("state_snapshots", {}).items()
        }
        for name, delta in payload.get("state_deltas", {}).items():
            materialized = prior.get(name, {})
            materialized.update(delta["updates"])
            for key in delta["deleted"]:
                materialized.pop(key, None)
            snapshots[name] = materialized
        state["checkpoint"] = {
            "batch_index": int(payload["batch_index"]),
            "next_batch": int(payload["next_batch"]),
            "state_snapshots": snapshots,
            "extra": dict(payload.get("extra", {})),
        }
    # Other record types fold to nothing: retired kinds in an older
    # journal, or kinds from a newer writer this reader does not know.


def _fold_all(
    snapshot: Optional[Dict[str, Any]], tail: List[WalRecord]
) -> Dict[str, Any]:
    state = _initial_state()
    if snapshot is not None:
        # Only the keys the fold keeps: an older snapshot's retired keys
        # are not carried into the next one.
        state.update({key: snapshot[key] for key in state if key in snapshot})
        # Sets pickle fine but a hand-edited snapshot may carry a list.
        state["committed_batches"] = set(state["committed_batches"] or ())
    for record in tail:
        _fold(state, record)
    return state


@dataclass
class RecoveredState:
    """What a crashed driver's journal says the world looked like."""

    session_epoch: int
    workers: List[str]
    committed_batches: frozenset
    checkpoint: Optional[Dict[str, Any]]
    replay_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def next_batch(self) -> int:
        """First batch the restarted streaming loop should run."""
        if self.checkpoint is not None:
            return int(self.checkpoint.get("next_batch", 0))
        return 0


def _copy_checkpoint(checkpoint: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The folded checkpoint in containers of its own (values shared): the
    fold goes on applying deltas to its copy in place."""
    if checkpoint is None:
        return None
    return dict(
        checkpoint,
        state_snapshots={
            name: dict(snapshot)
            for name, snapshot in checkpoint["state_snapshots"].items()
        },
        extra=dict(checkpoint["extra"]),
    )


def _recovered_from(state: Dict[str, Any], stats: Dict[str, int]) -> RecoveredState:
    return RecoveredState(
        session_epoch=int(state["epoch"]),
        workers=list(state["workers"]),
        committed_batches=frozenset(state["committed_batches"]),
        checkpoint=_copy_checkpoint(state["checkpoint"]),
        replay_stats=dict(stats),
    )


class ControlJournal:
    """Drives the WAL on behalf of the driver/streaming control plane.

    Thread-safe: the driver journals membership changes while the
    streaming loop journals group commits and checkpoints.
    """

    def __init__(self, wal_dir: str, metrics=None):
        self.wal = WriteAheadLog(wal_dir, metrics=metrics)
        self.metrics = metrics
        self._lock = threading.Lock()
        snapshot, tail, stats = self.wal.load()
        self._state = _fold_all(snapshot, tail)
        # The world as the previous incarnation left it, before this
        # session touches anything; LocalCluster.recover reads this.
        self.recovered = _recovered_from(self._state, stats)

    @property
    def wal_dir(self) -> str:
        return self.wal.wal_dir

    def open_session(self) -> int:
        """Claim the next driver session epoch (fenced, durable)."""
        with self._lock:
            epoch = int(self._state["epoch"]) + 1
            self._state["epoch"] = epoch
            self.wal.append("session", {"epoch": epoch})
            return epoch

    def _append(self, record_type: str, payload: Dict[str, Any]) -> None:
        _fold(self._state, WalRecord(record_type, payload))
        self.wal.append(record_type, payload)

    def record_membership(self, workers) -> None:
        with self._lock:
            self._append("membership", {"workers": sorted(workers)})

    def record_group_commit(self, batch_ids) -> None:
        """One streaming group committed — the durable recovery line.

        Compacts once the log tail has grown to the size of the last
        snapshot, so a replay reads at most about twice the live state."""
        with self._lock:
            self._append("group_commit", {"batch_ids": list(batch_ids)})
            if self.wal.log_bytes >= self.wal.snapshot_bytes:
                self.wal.compact(self._state)

    def record_checkpoint(
        self,
        batch_index: int,
        next_batch: int,
        state_snapshots,
        extra=None,
        state_deltas=None,
    ) -> None:
        """One streaming checkpoint.  ``state_snapshots`` maps each store
        recorded whole to its contents; ``state_deltas`` maps each other
        store to ``{"updates": {...}, "deleted": [...]}`` since the
        previous checkpoint record.  Stores in neither are dropped."""
        payload = {
            "batch_index": batch_index,
            "next_batch": next_batch,
            "state_snapshots": state_snapshots,
            "extra": dict(extra or {}),
        }
        if state_deltas:
            payload["state_deltas"] = state_deltas
        with self._lock:
            self._append("checkpoint", payload)

    def close(self) -> None:
        with self._lock:
            self.wal.close()

    @staticmethod
    def recover(wal_dir: str, metrics=None) -> RecoveredState:
        """Read-only replay of a WAL directory into a RecoveredState."""
        snapshot, tail, stats = load_wal(wal_dir, metrics=metrics)
        state = _fold_all(snapshot, tail)
        if metrics is not None:
            metrics.counter(COUNT_HA_RECOVERIES).add(1)
        return _recovered_from(state, stats)
