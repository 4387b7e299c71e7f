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
per-key change tracking feeds the checkpoint and, through
:meth:`StateStore.take_changes`, the journal's delta records.

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

    The *checkpoint* cursor consumes the store's per-key changes:
    :meth:`snapshot` copies the keys changed since the previous snapshot
    over a copy of that snapshot, and :meth:`take_changes` hands the
    journal what that copy gained and lost since the previous take.  The
    first snapshot after creation or :meth:`restore` copies everything
    (the full base).
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

    def get(self, key: Any, default: Any = None) -> Any:
        with self._lock:
            value = self._state.get(key, _MISSING)
            if value is _MISSING:
                return default
            if not _is_atom(value):
                self._changed.add(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._state[key] = value
            self._changed.add(key)

    def delete(self, key: Any) -> None:
        with self._lock:
            if self._state.pop(key, _MISSING) is not _MISSING:
                self._changed.add(key)

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

    def items(self) -> List:
        with self._lock:
            pairs = list(self._state.items())
            self._changed.update(key for key, value in pairs if not _is_atom(value))
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
        snapshot is a full base."""
        with self._lock:
            self._state = copy.deepcopy(snapshot)
            self._changed = set()
            self._full = True


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
