"""Group scheduling (paper §3.1) — placement reuse and group planning.

Group scheduling amortizes centralized scheduling cost by computing task
placement *once per group* of micro-batches and shipping every batch's
tasks to the workers in a single RPC per worker.

The key enabling observation (§3.1): the computation DAG of a streaming
job is largely static across micro-batches, so locality preferences and
the worker-to-task mapping computed for one micro-batch are valid for the
whole group.  :class:`PlacementPolicy` computes an assignment once;
:func:`plan_group` replicates it across the group's batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class TaskSlot:
    """A placement target: a worker and a slot index on it."""

    worker_id: str
    slot: int


@dataclass
class StageTemplate:
    """Shape of one stage of the (static) per-micro-batch DAG.

    ``locality``: optional preferred worker per partition (e.g. the worker
    holding the source partition); honoured when that worker is alive.
    """

    stage_index: int
    num_tasks: int
    is_shuffle_map: bool
    shuffle_id: Optional[int] = None
    locality: Optional[Sequence[Optional[str]]] = None


@dataclass
class Assignment:
    """Placement for every stage of the template DAG.

    ``by_stage[stage_index][partition] -> TaskSlot``.
    """

    workers: Tuple[str, ...]
    by_stage: Dict[int, List[TaskSlot]] = field(default_factory=dict)

    def tasks_for_worker(self, worker_id: str) -> List[Tuple[int, int]]:
        """(stage_index, partition) pairs placed on ``worker_id``."""
        out: List[Tuple[int, int]] = []
        for stage_index, slots in sorted(self.by_stage.items()):
            for partition, slot in enumerate(slots):
                if slot.worker_id == worker_id:
                    out.append((stage_index, partition))
        return out


class PlacementPolicy:
    """Deterministic locality-then-round-robin placement.

    This mirrors what a Spark-style scheduler computes per stage: respect
    locality preferences when possible, otherwise spread tasks round-robin
    across slots.  Determinism matters — the reuse argument of §3.1 and
    our replay-based fault tolerance both rely on the same inputs mapping
    to the same placement.
    """

    def __init__(self, workers: Sequence[str], slots_per_worker: int):
        if not workers:
            raise ValueError("no workers to place tasks on")
        if slots_per_worker < 1:
            raise ValueError("slots_per_worker must be >= 1")
        self.workers = tuple(sorted(workers))
        self.slots_per_worker = slots_per_worker

    def assign(self, stages: Sequence[StageTemplate]) -> Assignment:
        assignment = Assignment(workers=self.workers)
        worker_index = {w: i for i, w in enumerate(self.workers)}
        cursor = 0
        num_workers = len(self.workers)
        for stage in stages:
            slots: List[TaskSlot] = []
            for partition in range(stage.num_tasks):
                preferred = None
                if stage.locality is not None and partition < len(stage.locality):
                    preferred = stage.locality[partition]
                if preferred is not None and preferred in worker_index:
                    w = preferred
                else:
                    w = self.workers[cursor % num_workers]
                    cursor += 1
                slots.append(TaskSlot(worker_id=w, slot=partition % self.slots_per_worker))
            assignment.by_stage[stage.stage_index] = slots
        return assignment


@dataclass(frozen=True)
class GroupPlan:
    """A planned group: which micro-batch indices run under one assignment."""

    group_id: int
    batch_indices: Tuple[int, ...]
    assignment: Assignment

    @property
    def size(self) -> int:
        return len(self.batch_indices)


def plan_group(
    group_id: int,
    first_batch: int,
    group_size: int,
    policy: PlacementPolicy,
    stages: Sequence[StageTemplate],
) -> GroupPlan:
    """Compute placement once and stamp it across ``group_size`` batches."""
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    assignment = policy.assign(stages)
    return GroupPlan(
        group_id=group_id,
        batch_indices=tuple(range(first_batch, first_batch + group_size)),
        assignment=assignment,
    )


# Controllers keep this many recent groups (observations, decisions,
# plans).  A policy's lookback counts batches and every group holds at
# least one, so 64 groups serve any lookback up to 64 batches, over ten
# times UtilizationScalingPolicy's default of 6; longer ones are rejected.
HISTORY_GROUPS = 64


@dataclass(frozen=True)
class GroupObservation:
    """What one group of micro-batches cost: the one input the §3.4
    tuner and the §3.3 scaling policy read at a group boundary.

    The driver builds it once per group from its scheduling and transfer
    counters and the group's wall time; the streaming context completes
    it with the batch range and, when a policy reads them, the cluster's
    live telemetry ``signals``.
    """

    first_batch: int
    batches: int
    scheduling_s: float
    task_transfer_s: float
    wall_s: float
    workers: int
    signals: Optional[Dict[str, Any]] = None

    @property
    def coordination_s(self) -> float:
        return self.scheduling_s + self.task_transfer_s

    @property
    def overhead(self) -> float:
        """Coordination time over wall time, capped at 1."""
        if self.wall_s <= 0:
            return 0.0
        return min(self.coordination_s / self.wall_s, 1.0)
