"""Task descriptors and completion reports exchanged between driver and
workers.

A :class:`TaskDescriptor` is what the driver "serializes and launches"
(§3.1).  In pre-scheduled mode the descriptor additionally carries:

* ``deps`` — the upstream notifications the task must wait for, and
* ``downstream`` — for map tasks, which worker hosts each reduce
  partition, so completion notifications go worker-to-worker without
  driver involvement (§3.2).

A source task's records travel in its descriptor (``input``), the way a
reduce task's buckets arrive as fetched data: the plan a descriptor points
at is code only, so one plan serves every batch of a group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.core.prescheduling import DepKey
from repro.dag.plan import PhysicalPlan
from repro.obs.trace import SpanContext

# Identifies a map output block: (job_id, shuffle_id, map_index).
MapOutputId = Tuple[int, int, int]


@dataclass(frozen=True)
class TaskId:
    """Stable identity of a task attempt."""

    job_id: int
    stage_index: int
    partition: int
    attempt: int = 0

    def key(self) -> str:
        return f"j{self.job_id}.s{self.stage_index}.p{self.partition}"

    def __str__(self) -> str:
        return f"{self.key()}.a{self.attempt}"


@dataclass
class TaskDescriptor:
    """Everything a worker needs to run one task.

    ``plan`` is shared by reference (we are in-process); the *cost* of task
    serialization/launch is accounted separately by the transport layer
    and, at cluster scale, by the simulator's cost model.
    """

    task_id: TaskId
    plan: PhysicalPlan
    pre_scheduled: bool = False
    # Pre-scheduled reduce tasks: notifications to wait for.
    deps: FrozenSet[DepKey] = frozenset()
    # Map tasks under pre-scheduling: reduce partition -> worker to notify,
    # per output shuffle ({} when the stage has no output shuffle).
    downstream: Dict[int, str] = field(default_factory=dict)
    # Per-batch (barrier) reduce tasks: (shuffle_id, map_index) -> worker
    # holding that block, supplied by the driver after the barrier.
    map_locations: Dict[DepKey, str] = field(default_factory=dict)
    # Minimum acceptable epoch (producing attempt) per dependency: a
    # fetched block written under an older epoch is a stale leftover of a
    # superseded attempt and is treated as missing, never as data.
    map_epochs: Dict[DepKey, int] = field(default_factory=dict)
    # Trace context of the owning stage span: the driver -> worker half of
    # end-to-end trace propagation (None when tracing is disabled).
    trace_ctx: Optional[SpanContext] = None
    # Source tasks: this partition's records, resolved by the driver when
    # the job was submitted (None for tasks that read a shuffle).
    input: Optional[List[Any]] = None

    @property
    def stage(self):
        return self.plan.stages[self.task_id.stage_index]

    def key(self) -> str:
        return self.task_id.key()


@dataclass
class TaskReport:
    """Worker -> driver completion report."""

    task_id: TaskId
    worker_id: str
    succeeded: bool
    # Map tasks: bytes-ish size per reduce partition (record counts stand
    # in for bytes; the driver only needs relative sizes).
    output_sizes: Optional[Dict[int, int]] = None
    # Result tasks: the action output for this partition.
    result: Any = None
    error: Optional[BaseException] = None
    compute_time_s: float = 0.0
    # Context of the worker-side ``task.compute`` span: the worker ->
    # driver half of trace propagation, so the driver (and tests) can
    # stitch reports back into the batch's span tree.
    trace_ctx: Optional[SpanContext] = None
