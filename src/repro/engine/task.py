"""Task descriptors and completion reports exchanged between driver and
workers.

A :class:`TaskDescriptor` is what the driver "serializes and launches"
(§3.1).  In pre-scheduled mode the descriptor additionally carries:

* ``deps`` — the upstream notifications the task must wait for, and
* ``downstream`` — for map tasks, which worker hosts each reduce
  partition, so completion notifications go worker-to-worker without
  driver involvement (§3.2).

A source task's descriptor carries a :class:`ReadSpec` — its job, stage,
batch range and partition — never records: the worker reads them itself,
as a reduce task pulls its buckets, through the driver's
:class:`SourceRegistry`, which stands in for the external log (Kafka)
every worker can reach in the paper's deployment.  The plan a descriptor
points at is code only, so one plan serves every batch of a group, and a
launch's size does not depend on the data.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.common.errors import PlanError, ReproError
from repro.core.prescheduling import DepKey
from repro.dag.dataset import stream_input
from repro.dag.plan import PhysicalPlan
from repro.obs.trace import SpanContext

# Identifies a map output block: (job_id, shuffle_id, map_index).
MapOutputId = Tuple[int, int, int]
# What feeds a streaming plan's placeholder source stages for one job:
# the stream source and the batch range the job reads (None for a plan
# with no placeholder).
JobSource = Optional[Tuple[Any, Any]]


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


class ReadSpec(NamedTuple):
    """What one source task reads: ``partition`` of the input its job
    registered for ``stage`` — a stream source read at ``batch_range``,
    or, when ``batch_range`` is None, the stage's own partition function."""

    job_id: int
    stage: int
    batch_range: Any
    partition: int


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
    # Source tasks: what to read, resolved by the worker (None for tasks
    # that read a shuffle).  Every attempt of a task carries the same spec.
    read: Optional[ReadSpec] = None

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


class SourceRead:
    """One input as the source stages registered with it read it: a stream
    source (``dataset_for(batch_range).partition_fn``) or a dataset's
    partition function.  ``readers`` stages share it — a context's output
    operations over one batch — so a partition is read once and held only
    until each of them has taken it."""

    def __init__(self, source: Any, readers: int = 0):
        self.source = source
        self.readers = readers
        self._lock = threading.Lock()
        self._left: Dict[int, int] = {}
        self._held: Dict[int, List[Any]] = {}

    def _read(self, spec: ReadSpec) -> List[Any]:
        if spec.batch_range is None:
            return list(self.source(spec.partition))
        batch = self.source.dataset_for(spec.batch_range)
        return list(batch.partition_fn(spec.partition))

    def read(self, spec: ReadSpec) -> List[Any]:
        if self.readers <= 1:
            return self._read(spec)
        with self._lock:
            left = self._left.get(spec.partition, self.readers)
            if left <= 0:
                return self._read(spec)  # a re-run after every reader took it
            records = self._held.pop(spec.partition, None)
            if records is None:
                records = self._read(spec)
            self._left[spec.partition] = left - 1
            if left > 1:
                self._held[spec.partition] = records
            return records


class SourceRegistry:
    """The driver's process-local ``job -> {stage: SourceRead}`` map that
    workers resolve read specs through.  A job's entry lives from its
    registration to its release (``Driver.drop_jobs``), nothing longer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[int, Dict[int, SourceRead]] = {}

    def register(self, job_id: int, reads: Dict[int, SourceRead]) -> None:
        """Set the job's inputs, replacing a superseded attempt's."""
        with self._lock:
            self._jobs[job_id] = reads

    def release(self, job_ids: Iterable[int]) -> None:
        with self._lock:
            for job_id in job_ids:
                self._jobs.pop(job_id, None)

    def read(self, spec: ReadSpec) -> List[Any]:
        """The records ``spec`` names.  Raises :class:`ReproError` naming
        the job when it was released: a late sibling of a failed job."""
        with self._lock:
            reads = self._jobs.get(spec.job_id)
        if reads is None:
            raise ReproError(
                f"job {spec.job_id} was released: its source stage "
                f"{spec.stage} has nothing to read"
            )
        return reads[spec.stage].read(spec)

    def job_ids(self) -> Set[int]:
        with self._lock:
            return set(self._jobs)


def source_reads(
    plans: Sequence[PhysicalPlan], sources: Sequence[JobSource]
) -> List[Dict[int, SourceRead]]:
    """What every source stage of each job of a group reads, by stage
    index; nothing is read here.  A stage whose ``source_fn`` is the
    :func:`stream_input` placeholder reads the job's stream source at
    its batch range; any other reads its own ``source_fn``.  Stages
    of a group that read the same input share one
    :class:`SourceRead`, so a context's output operations over one
    batch read each partition once."""
    shared: Dict[Any, SourceRead] = {}
    out: List[Dict[int, SourceRead]] = []
    for plan, source in zip(plans, sources):
        reads: Dict[int, SourceRead] = {}
        for stage in plan.stages:
            if not stage.is_source:
                continue
            if stage.source_fn is stream_input:
                if source is None:
                    raise PlanError(
                        "a streaming plan needs each job's source: "
                        f"stage {stage.stage_index} reads stream input"
                    )
                key, reader = source, source[0]
            else:
                key = reader = stage.source_fn
            if key not in shared:
                shared[key] = SourceRead(reader)
            shared[key].readers += 1
            reads[stage.stage_index] = shared[key]
        out.append(reads)
    return out
