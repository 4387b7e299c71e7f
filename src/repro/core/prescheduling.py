"""Pre-scheduling of shuffles (paper §3.2) — dependency bookkeeping.

Pre-scheduling launches downstream (reduce) tasks *before* their upstream
(map) tasks have produced output.  Each worker runs a *local scheduler*
whose core data structure is the :class:`PendingTaskTable` below: tasks
are registered inactive with a set of expected upstream notifications, and
become runnable exactly when the last notification arrives.

The module also computes *dependency sets*: which upstream task indices a
given downstream task must wait for.  For a general shuffle this is
all-to-all (every reducer reads from every mapper).  §3.6 observes that
for operators with a known communication structure — the paper implements
``treereduce`` — the set can be narrowed so that a reduce task waits only
on its actual parents, letting it start earlier.

Everything here is pure logic with no threads or I/O, shared verbatim by
the threaded engine (:mod:`repro.engine.worker`) and the simulator
(:mod:`repro.sim.bsp`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

# A notification key: (shuffle_id, map_partition_index).
DepKey = Tuple[int, int]


def all_to_all_deps(shuffle_id: int, num_map_tasks: int) -> FrozenSet[DepKey]:
    """Dependency set for a hash/range shuffle: wait for every map task."""
    if num_map_tasks < 0:
        raise ValueError("num_map_tasks must be >= 0")
    return frozenset((shuffle_id, i) for i in range(num_map_tasks))


def tree_reduce_deps(
    shuffle_id: int, num_map_tasks: int, reducer_index: int, fan_in: int = 2
) -> FrozenSet[DepKey]:
    """Dependency set for a tree-reduce stage (§3.6).

    Maps are grouped into contiguous chunks of ``fan_in``; reducer *r*
    aggregates chunk *r* and therefore only waits on those map tasks.
    """
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    lo = reducer_index * fan_in
    hi = min(lo + fan_in, num_map_tasks)
    if lo >= num_map_tasks:
        raise ValueError(
            f"reducer {reducer_index} has no parents "
            f"({num_map_tasks} maps, fan_in {fan_in})"
        )
    return frozenset((shuffle_id, i) for i in range(lo, hi))


def tree_reduce_num_reducers(num_map_tasks: int, fan_in: int = 2) -> int:
    """Number of reducers one tree-reduce level needs."""
    if num_map_tasks < 1:
        raise ValueError("num_map_tasks must be >= 1")
    return (num_map_tasks + fan_in - 1) // fan_in


@dataclass
class PendingEntry:
    """A pre-scheduled task waiting for its inputs."""

    task_key: str
    outstanding: Set[DepKey]
    satisfied: Set[DepKey] = field(default_factory=set)

    @property
    def ready(self) -> bool:
        return not self.outstanding


class PendingTaskTable:
    """Tracks inactive pre-scheduled tasks on one worker.

    Protocol (mirrors §3.2):

    * ``register(task_key, deps)`` — the driver pre-schedules a task; it is
      inactive and holds no execution slot.
    * ``notify(dep)`` — an upstream task finished and pushed its metadata;
      returns every task key that became runnable *because of this exact
      notification* (each key is returned at most once, ever).
    * Notifications may arrive *before* the task is registered (an upstream
      worker can be fast, or the driver pre-populates completed
      dependencies when re-scheduling onto a new machine after a failure,
      §3.3).  Early notifications are buffered in ``_seen``.
    """

    def __init__(self) -> None:
        self._pending: Dict[str, PendingEntry] = {}
        self._seen: Set[DepKey] = set()
        self._activated: Set[str] = set()

    def __len__(self) -> int:
        return len(self._pending)

    def pending_keys(self) -> List[str]:
        return list(self._pending)

    def entry(self, task_key: str) -> Optional[PendingEntry]:
        return self._pending.get(task_key)

    def register(self, task_key: str, deps: FrozenSet[DepKey]) -> bool:
        """Register an inactive task.  Returns True if it is immediately
        runnable (all deps already satisfied, or no deps at all)."""
        if task_key in self._pending or task_key in self._activated:
            raise ValueError(f"task {task_key!r} already registered")
        outstanding = set(deps) - self._seen
        entry = PendingEntry(
            task_key=task_key,
            outstanding=outstanding,
            satisfied=set(deps) & self._seen,
        )
        if entry.ready:
            self._activated.add(task_key)
            return True
        self._pending[task_key] = entry
        return False

    def notify(self, dep: DepKey) -> List[str]:
        """Record that upstream output ``dep`` is available; return newly
        runnable task keys.  Idempotent per (task, dep) pair."""
        self._seen.add(dep)
        ready: List[str] = []
        for key in list(self._pending):
            entry = self._pending[key]
            if dep in entry.outstanding:
                entry.outstanding.discard(dep)
                entry.satisfied.add(dep)
                if entry.ready:
                    del self._pending[key]
                    self._activated.add(key)
                    ready.append(key)
        return ready

    def pre_populate(self, deps: FrozenSet[DepKey]) -> List[str]:
        """Driver-supplied list of already-completed dependencies (§3.3,
        used when pre-scheduling onto a machine that joined after some
        upstream tasks already finished).  Returns newly runnable keys."""
        ready: List[str] = []
        for dep in deps:
            ready.extend(self.notify(dep))
        return ready

    def cancel(self, task_key: str) -> bool:
        """Remove a pending task (e.g. its group was aborted)."""
        return self._pending.pop(task_key, None) is not None

    def was_activated(self, task_key: str) -> bool:
        return task_key in self._activated
