"""Streaming state and synchronous checkpoints (§3.3).

State is keyed (e.g. ``(campaign, window) -> count``) and updated once per
micro-batch from that batch's aggregated output.  Checkpoints are
synchronous, taken at group boundaries by default, and capture everything
needed to resume: the batch index, a deep snapshot of every state store,
and the source position (which batches were planned).

Recovery = restore the last checkpoint, roll the source back, and replay
the suffix of micro-batches; deterministic batch contents plus idempotent
sinks give exactly-once output (prefix integrity).

Snapshots are incremental.  A :class:`StateStore` remembers which keys
changed since its last snapshot and keeps a read-only copy of every value
as of that snapshot; :meth:`StateStore.snapshot` deep-copies only the
changed keys, sharing every other value with the previous snapshot.
Snapshots are therefore read-only, the dict as well as its values.  The
same per-key change tracking feeds two consumers: the checkpoint (and,
through :meth:`StateStore.take_changes`, the journal's delta records)
and the key-range migration of :mod:`repro.elastic.migration`.

The tracking contract — what counts as a change:

* ``put``, ``update_many`` and ``delete`` change the keys they name.
* A value that leaves the store *by reference* — returned by ``get`` or
  ``items`` — counts as changed, because the caller may mutate it in
  place.  Immutable atoms (``int``, ``float``, ``bool``, ``complex``,
  ``str``, ``bytes``, ``None`` and tuples of these) are exempt.
* A value handed *in* by ``put`` or ``update_many`` belongs to the store
  from then on, and so does a reference obtained from ``get`` or
  ``items`` once the next snapshot has been taken: to change such a value
  later, get it again (or put it again) first.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

_MISSING = object()
_ATOM_TYPES = frozenset({int, float, bool, complex, str, bytes, type(None)})


def _is_atom(value: Any) -> bool:
    """True for values nobody can mutate in place."""
    kind = type(value)
    if kind in _ATOM_TYPES:
        return True
    return kind is tuple and all(_is_atom(item) for item in value)


def _read_only_copy(value: Any) -> Any:
    return value if _is_atom(value) else copy.deepcopy(value)


class StateStore:
    """A named key->state map with incremental snapshot/restore.

    Two cursors consume the store's per-key changes:

    * the *checkpoint* cursor: :meth:`snapshot` copies the keys changed
      since the previous snapshot over a copy of that snapshot, and
      :meth:`take_changes` hands the journal what that copy gained and
      lost since the previous take.  The first snapshot after creation or
      :meth:`restore` copies everything (the full base).
    * the *migration* cursor: :meth:`delta_for_range` /
      :meth:`mark_range_synced` / :meth:`extract_range`, what the elastic
      controller's key-range moves overlay on a worker's shard copy.
      Until a range is first acknowledged every key counts as unsynced —
      the empty worker copies a registration starts from — so a store
      that is never migrated never accumulates a dirty set.
    """

    def __init__(self, name: str):
        self.name = name
        self._state: Dict[Any, Any] = {}
        self._lock = threading.Lock()
        # Checkpoint cursor.
        self._base: Dict[Any, Any] = {}  # the last snapshot returned
        self._changed: Set[Any] = set()  # keys changed since the last snapshot
        self._full = True  # the next snapshot rebuilds the base from scratch
        # What the base gained and lost since the last take_changes():
        # (updated key -> copy, deleted keys), or None when the base was
        # rebuilt (the journal needs all of it).
        self._untaken: Optional[Tuple[Dict[Any, Any], Set[Any]]] = None
        # Migration cursor: keys changed since their range was last
        # synced; None until the first sync (every key unsynced).
        self._unsynced: Optional[Set[Any]] = None

    def _touch(self, key: Any) -> None:
        """Record a change to ``key`` for both cursors (lock held)."""
        self._changed.add(key)
        if self._unsynced is not None:
            self._unsynced.add(key)

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            value = self._state.get(key, _MISSING)
            if value is _MISSING:
                return default
            if not _is_atom(value):
                self._touch(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._state[key] = value
            self._touch(key)

    def delete(self, key: Any) -> None:
        with self._lock:
            if self._state.pop(key, _MISSING) is not _MISSING:
                self._touch(key)

    def update_many(
        self, updates: Dict[Any, Any], merge: Callable[[Any, Any], Any]
    ) -> None:
        """Merge a batch of (key, value) aggregates into the state."""
        with self._lock:
            state = self._state
            for key, value in updates.items():
                if key in state:
                    state[key] = merge(state[key], value)
                else:
                    state[key] = value
            self._changed.update(updates)
            if self._unsynced is not None:
                self._unsynced.update(updates)

    def items(self) -> List:
        with self._lock:
            pairs = list(self._state.items())
            handed_out = [key for key, value in pairs if not _is_atom(value)]
            self._changed.update(handed_out)
            if self._unsynced is not None:
                self._unsynced.update(handed_out)
            return pairs

    def __len__(self) -> int:
        with self._lock:
            return len(self._state)

    # ------------------------------------------------------------------
    # Checkpoint cursor
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[Any, Any]:
        """A deep snapshot of the state: a new dict that never aliases
        live state.  It is read-only: its values are shared with other
        snapshots, and the store keeps it as the base the next snapshot
        starts from — only keys changed since then are copied again."""
        with self._lock:
            state = self._state
            if self._full:
                self._base = copy.deepcopy(state)
                self._full = False
                self._untaken = None
            else:
                fresh = {
                    key: _read_only_copy(state[key])
                    for key in self._changed
                    if key in state
                }
                deleted = self._changed.difference(fresh)
                base = self._base = dict(self._base)
                base.update(fresh)
                for key in deleted:
                    base.pop(key, None)
                if self._untaken is not None:
                    updates, gone = self._untaken
                    updates.update(fresh)
                    gone.difference_update(fresh)
                    for key in deleted:
                        updates.pop(key, None)
                    gone.update(deleted)
            self._changed = set()
            return self._base

    def take_changes(self) -> Optional[Dict[str, Any]]:
        """What the snapshots taken since the previous call changed, as
        ``{"updates": {key: copy}, "deleted": [key, ...]}`` — or ``None``
        when the base was rebuilt in between and must be recorded whole.
        The update values are the snapshot's shared read-only copies."""
        with self._lock:
            untaken, self._untaken = self._untaken, ({}, set())
        if untaken is None:
            return None
        updates, deleted = untaken
        return {"updates": updates, "deleted": list(deleted)}

    def restore(self, snapshot: Dict[Any, Any]) -> None:
        """Replace the contents with a deep copy of ``snapshot``.  The next
        snapshot is a full base.  Every key of the old and the new
        contents becomes unsynced: a worker shard copy holds only keys
        that were synced once, and each of those is either still in the
        old contents or already unsynced as a deletion, so the overlay
        stays exact."""
        with self._lock:
            if self._unsynced is not None:
                self._unsynced.update(self._state)
            self._state = copy.deepcopy(snapshot)
            self._changed = set()
            self._full = True
            if self._unsynced is not None:
                self._unsynced.update(self._state)

    # ------------------------------------------------------------------
    # Migration cursor (repro.elastic.migration)
    # ------------------------------------------------------------------
    def extract_range(self, key_range: Any) -> Dict[Any, Any]:
        """Authoritative current contents of ``key_range`` (the recovery
        payload when a move's source worker is gone)."""
        with self._lock:
            return {
                k: copy.deepcopy(v)
                for k, v in self._state.items()
                if key_range.contains_key(k)
            }

    def delta_for_range(self, key_range: Any) -> Dict[str, Any]:
        """Updates and deletions inside ``key_range`` since its last sync,
        as ``{"updates": {...}, "deleted": [...]}``."""
        with self._lock:
            state = self._state
            unsynced = state.keys() if self._unsynced is None else self._unsynced
            updates: Dict[Any, Any] = {}
            deleted: List[Any] = []
            for key in unsynced:
                if not key_range.contains_key(key):
                    continue
                if key in state:
                    updates[key] = copy.deepcopy(state[key])
                else:
                    deleted.append(key)
        return {"updates": updates, "deleted": deleted}

    def mark_range_synced(self, key_range: Any) -> None:
        """A destination acked ``key_range``: its worker copy is current."""
        with self._lock:
            unsynced = set(self._state) if self._unsynced is None else self._unsynced
            self._unsynced = {k for k in unsynced if not key_range.contains_key(k)}


# The elastic plane's name for the same store, from when only migrating
# stores tracked changed keys.
ShardedStateStore = StateStore


@dataclass
class Checkpoint:
    """One synchronous checkpoint."""

    batch_index: int  # last batch whose effects are included
    state_snapshots: Dict[str, Dict[Any, Any]]
    extra: Dict[str, Any] = field(default_factory=dict)


class CheckpointStore:
    """Holds checkpoints; ``latest()`` is what recovery restores from."""

    def __init__(self, keep: int = 3):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.keep = keep
        self._checkpoints: List[Checkpoint] = []
        self._lock = threading.Lock()

    def save(self, checkpoint: Checkpoint) -> None:
        with self._lock:
            self._checkpoints.append(checkpoint)
            if len(self._checkpoints) > self.keep:
                self._checkpoints = self._checkpoints[-self.keep :]

    def latest(self) -> Optional[Checkpoint]:
        with self._lock:
            return self._checkpoints[-1] if self._checkpoints else None

    def __len__(self) -> int:
        with self._lock:
            return len(self._checkpoints)
