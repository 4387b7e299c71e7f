"""The centralized driver/scheduler.

Implements the control-plane variants the paper compares:

* ``PER_BATCH`` (Spark baseline) — each stage is scheduled after its
  parents complete; map tasks report output sizes to the driver; the
  driver launches reduce tasks with explicit block locations.  One launch
  RPC *per task* (Figure 1).
* ``PRE_SCHEDULED`` — all stages of one micro-batch are assigned up front;
  reduce tasks are parked on workers and triggered by worker-to-worker
  notifications (§3.2).  One launch RPC per worker per batch.
* ``DRIZZLE`` — pre-scheduling plus *group scheduling* (§3.1): placement
  is computed once per group and every batch's tasks ship in a single RPC
  per worker per group.

Fault tolerance follows §3.3: heartbeat-based detection, resubmission of
lost tasks, parallel recovery across in-flight micro-batches, reuse of
surviving intermediate (map) outputs, and pre-population of completed
dependencies when a pre-scheduled task is moved to a new machine.

The driver reads no records.  It registers what each source stage of a
job reads in its :class:`SourceRegistry` until the job's one release
point, :meth:`Driver.drop_jobs`, and each source task's descriptor
carries a :class:`ReadSpec` that its worker resolves — the same spec for
every attempt, so a re-run or a speculative copy reads the same range.
Plans are code only, which lets every batch of a stream share one plan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.clock import Clock, WallClock
from repro.common.config import EngineConf, SchedulingMode
from repro.common.errors import (
    FetchFailed,
    RecoveryBudgetExceeded,
    ReproError,
    SerializationError,
    StageTimeout,
    TaskError,
    WorkerLost,
)
from repro.common.metrics import (
    COUNT_BATCHES_EXECUTED,
    COUNT_GROUPS_SCHEDULED,
    COUNT_LAUNCH_RPCS,
    COUNT_RECOVERIES,
    COUNT_SPECULATIVE,
    COUNT_TASKS_LAUNCHED,
    TIME_SCHEDULING,
    TIME_TASK_TRANSFER,
    MetricsRegistry,
)
from repro.core.groups import GroupObservation, PlacementPolicy, StageTemplate
from repro.core.prescheduling import DepKey
from repro.core.tuner import GroupSizeTuner
from repro.dag.dataset import stream_input
from repro.dag.plan import PhysicalPlan, ShuffleSpec, StageSpec
from repro.engine.rpc import BaseTransport
from repro.engine.task import (
    JobSource,
    ReadSpec,
    SourceRead,
    SourceRegistry,
    TaskDescriptor,
    TaskId,
    TaskReport,
    source_reads,
)
from repro.obs.names import (
    EVENT_TASK_RESUBMIT,
    EVENT_TUNER_DECISION,
    SPAN_BATCH,
    SPAN_GROUP,
    SPAN_RECOVERY,
    SPAN_STAGE,
    SPAN_TASK_LAUNCH_RPC,
    SPAN_TASK_SCHEDULE,
)
from repro.obs.trace import NULL_RECORDER, Recorder, SpanContext

DRIVER_ID = "driver"


@dataclass
class JobState:
    """Driver-side bookkeeping for one submitted job (one micro-batch)."""

    job_id: int
    job_key: Any
    plan: PhysicalPlan
    pre_scheduled: bool
    # The stream batch the placeholder source stages read (None for a job
    # without one); every attempt of a source task's spec names it.
    batch_range: Any = None
    stage_remaining: Dict[int, Set[int]] = field(default_factory=dict)
    map_status: Dict[DepKey, str] = field(default_factory=dict)
    # Epoch (producing task attempt) each completed map output was written
    # under — shipped beside map_status wherever locations travel, so no
    # reader can be served a stale co-named block from an older attempt.
    map_epochs: Dict[DepKey, int] = field(default_factory=dict)
    results: Dict[int, Any] = field(default_factory=dict)
    task_locations: Dict[Tuple[int, int], str] = field(default_factory=dict)
    attempts: Dict[Tuple[int, int], int] = field(default_factory=dict)
    blocked: Set[Tuple[int, int]] = field(default_factory=set)
    # Tasks re-placed after a failure: map completions must be forwarded
    # to their new location, since in-flight map descriptors still carry
    # the old downstream pointer (§3.3).
    relocated: Set[Tuple[int, int]] = field(default_factory=set)
    # Straggler mitigation bookkeeping.
    task_started: Dict[Tuple[int, int], float] = field(default_factory=dict)
    task_durations: Dict[int, List[float]] = field(default_factory=dict)
    speculated: Set[Tuple[int, int]] = field(default_factory=set)
    # Human-readable history of every fault this job survived (bounded);
    # attached to RecoveryBudgetExceeded when the retry budget runs out.
    fault_log: List[str] = field(default_factory=list)
    error: Optional[BaseException] = None
    done: threading.Event = field(default_factory=threading.Event)
    # shuffle_id -> consumer stage index / producer (map) stage index
    consumers: Dict[int, int] = field(default_factory=dict)
    producers: Dict[int, int] = field(default_factory=dict)
    # Tracing: the batch's root span and one child span per stage (empty
    # when tracing is disabled).
    batch_span: Any = None
    stage_spans: Dict[int, Any] = field(default_factory=dict)

    def stage_complete(self, stage_index: int) -> bool:
        return not self.stage_remaining.get(stage_index)

    def is_finished(self) -> bool:
        return self.done.is_set()

    @property
    def result_stage_index(self) -> int:
        return self.plan.stages[-1].stage_index


class Driver:
    """Centralized scheduler; registered on the transport as ``driver``."""

    def __init__(
        self,
        transport: "BaseTransport",
        conf: EngineConf,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Clock] = None,
        tracer: Optional[Recorder] = None,
    ):
        conf.validate()
        self.conf = conf
        self.transport = transport
        self.metrics = metrics or MetricsRegistry()
        self.clock = clock or WallClock()
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.jobs: Dict[int, JobState] = {}
        self._job_ids_by_key: Dict[Any, int] = {}
        self._alive: Set[str] = set()
        self._draining: Set[str] = set()
        self._next_job_id = 0
        self._rr_cursor = 0
        self._lock = threading.RLock()
        self._cv = threading.Condition(self._lock)
        self._last_heartbeat: Dict[str, float] = {}
        self._monitor: Optional[threading.Thread] = None
        self._stop_monitor = threading.Event()
        self.tuner: Optional[GroupSizeTuner] = (
            GroupSizeTuner(conf.tuner, conf.group_size) if conf.tuner.enabled else None
        )
        self.last_group: Optional[GroupObservation] = None
        # Live telemetry store (repro.obs.live), wired by LocalCluster
        # when TelemetryConf.enabled; worker deltas land here.
        self.telemetry = None
        # Driver fault tolerance (repro.ha), wired by LocalCluster when
        # HaConf.enabled: the control-plane journal, and this driver
        # incarnation's session epoch.  Epoch 0 means HA is off — no
        # journaling, no fencing stamp, byte-identical non-HA behaviour.
        self.journal = None
        self.session_epoch = 0
        # What each live job's source tasks read; workers resolve their
        # read specs through it (LocalCluster hands it to each worker).
        self.sources = SourceRegistry()
        transport.register(DRIVER_ID, self)

    # ------------------------------------------------------------------
    # Cluster membership
    # ------------------------------------------------------------------
    def add_worker(self, worker_id: str) -> None:
        with self._lock:
            self._alive.add(worker_id)
            self._draining.discard(worker_id)
            self._last_heartbeat[worker_id] = self.clock.now()
        self._annotate_scale_event(worker_id, "join", "worker added")
        self._journal_membership()

    def decommission_worker(self, worker_id: str) -> None:
        """Graceful removal: excluded from future placement; running tasks
        finish normally (elasticity at group boundaries, §3.3)."""
        with self._lock:
            self._draining.add(worker_id)
        self._annotate_scale_event(worker_id, "leave", "decommissioned")
        self._journal_membership()

    def _journal_membership(self) -> None:
        if self.journal is not None:
            with self._lock:
                workers = sorted(self._alive - self._draining)
            self.journal.record_membership(workers)

    def _epoch_kwargs(self) -> Dict[str, int]:
        """The fencing stamp for worker-bound messages; empty when HA is
        off, so non-HA wire traffic stays byte-identical."""
        if self.session_epoch > 0:
            return {"driver_epoch": self.session_epoch}
        return {}

    def _annotate_scale_event(self, worker_id: str, action: str, reason: str) -> None:
        if self.telemetry is not None:
            try:
                self.telemetry.annotate_scale_event(worker_id, action, reason)
            except Exception:
                pass  # observability must never break membership changes

    def alive_workers(self) -> List[str]:
        with self._lock:
            return sorted(self._alive)

    def placement_workers(self) -> List[str]:
        with self._lock:
            return sorted(self._alive - self._draining)

    @property
    def current_group_size(self) -> int:
        if self.tuner is not None:
            return self.tuner.group_size
        return self.conf.group_size

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def start_monitor(self) -> None:
        self._stop_monitor.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="driver-monitor", daemon=True
        )
        self._monitor.start()

    def stop_monitor(self) -> None:
        self._stop_monitor.set()

    def start_speculation(self) -> None:
        """Launch the straggler-mitigation monitor (SpeculationConf)."""
        thread = threading.Thread(
            target=self._speculation_loop, name="driver-speculation", daemon=True
        )
        thread.start()

    def _speculation_loop(self) -> None:
        interval = self.conf.speculation.check_interval_s
        while not self._stop_monitor.wait(interval):
            self.speculation_pass()

    def speculation_pass(self) -> int:
        """One sweep: launch a second copy of every detected straggler.
        Returns how many speculative copies were launched."""
        spec = self.conf.speculation
        now = self.clock.now()
        launched = 0
        with self._lock:
            for job in self.jobs.values():
                if job.is_finished():
                    continue
                for stage in job.plan.stages:
                    launched += self._speculate_stage(job, stage, now, spec)
        if launched:
            self.metrics.counter(COUNT_SPECULATIVE).add(launched)
        return launched

    def _speculate_stage(self, job: JobState, stage, now: float, spec) -> int:
        s = stage.stage_index
        remaining = job.stage_remaining.get(s, set())
        if not remaining:
            return 0
        done = stage.num_tasks - len(remaining)
        if done / stage.num_tasks < spec.min_completed_fraction:
            return 0
        durations = sorted(job.task_durations.get(s, ()))
        if not durations:
            return 0
        median = durations[len(durations) // 2]
        threshold = max(spec.min_runtime_s, spec.multiplier * median)
        launched = 0
        for partition in sorted(remaining):
            key = (s, partition)
            if key in job.speculated:
                continue
            started = job.task_started.get(key)
            if started is None or now - started <= threshold:
                continue
            # Only speculate tasks that are plausibly *running* (all of
            # their inputs exist), not tasks parked for dependencies.
            deps = stage.task_dependencies(partition)
            if any(d not in job.map_status for d in deps):
                continue
            job.speculated.add(key)
            job.attempts[key] = job.attempts.get(key, 0) + 1
            self._resubmit_task(
                job, s, partition, exclude=job.task_locations.get(key)
            )
            launched += 1
        return launched

    def heartbeat(self, worker_id: str, _ts: float) -> None:
        """Liveness ping from a worker."""
        with self._lock:
            if worker_id in self._alive:
                self._last_heartbeat[worker_id] = self.clock.now()

    def ingest_telemetry(self, worker_id: str, delta) -> bool:
        """Target of the uncounted ``__metrics__`` shipping path, the one
        route worker telemetry takes.  Returns False when no store is
        armed."""
        if self.telemetry is None:
            return False
        self.telemetry.ingest(worker_id, delta)
        return True

    def _monitor_loop(self) -> None:
        interval = self.conf.monitor.heartbeat_interval_s
        timeout = self.conf.monitor.heartbeat_timeout_s
        while not self._stop_monitor.wait(interval):
            now = self.clock.now()
            with self._lock:
                expired = [
                    w
                    for w in self._alive
                    if now - self._last_heartbeat.get(w, now) > timeout
                ]
            for worker_id in expired:
                self.on_worker_lost(
                    worker_id, reason=f"heartbeat timeout after {timeout}s"
                )

    def notify_delivery_failed(
        self, job_id: int, shuffle_id: int, map_index: int, src: str, target: str
    ) -> None:
        """A worker could not deliver a map-output notification.

        If the target really is unreachable, treat it as lost (workers
        rely on the driver as the single source of truth, §3.3).  If the
        target is healthy, the *notification* was the casualty (a dropped
        frame): re-deliver it driver-side, because a reduce task parked on
        that dependency would otherwise wait forever."""
        if not self.transport.is_alive(target):
            self.on_worker_lost(target, reason=f"unreachable from {src}")
            return
        dep = (shuffle_id, map_index)
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                return  # released: re-delivering would resurrect it there
            epoch = job.map_epochs.get(dep, 0)
        if not self._seed_dependencies(target, job_id, [(dep, src, epoch)]):
            self.on_worker_lost(
                target, reason="redelivery of a map-output notification failed"
            )

    def _seed_dependencies(
        self, worker_id: str, job_id: int, completed: List[Tuple[DepKey, str, int]]
    ) -> bool:
        """Send ``pre_populate`` with ``(dep, holder, epoch)`` entries,
        making up to 3 attempts; returns whether one was delivered.  The
        caller decides what a failure means."""
        return any(
            self.transport.try_call(
                worker_id, "pre_populate", job_id, completed, **self._epoch_kwargs()
            )
            for _ in range(3)
        )

    @staticmethod
    def _completed_deps(
        job: JobState, deps: Optional[frozenset] = None
    ) -> List[Tuple[DepKey, str, int]]:
        """``pre_populate`` entries for the job's finished map outputs
        (only those in ``deps`` when given)."""
        return [
            (dep, holder, job.map_epochs.get(dep, 0))
            for dep, holder in job.map_status.items()
            if deps is None or dep in deps
        ]

    # ------------------------------------------------------------------
    # Public job API
    # ------------------------------------------------------------------
    def run_job(self, plan: PhysicalPlan, job_key: Any = None, reuse: bool = False) -> Any:
        """Execute one job synchronously and return the action's result.
        A job without a ``job_key`` is released once this returns."""
        if self.conf.scheduling_mode is SchedulingMode.PER_BATCH:
            (reads,) = source_reads([plan], [None])
            return self._run_barrier(plan, job_key, reuse, reads, None)
        job_ids = self.submit_group([plan], job_keys=[job_key], reuse=reuse)
        try:
            return self.wait_job(job_ids[0])
        finally:
            self._release_unkeyed(job_ids, [job_key])

    def run_group(
        self,
        plans: Sequence[PhysicalPlan],
        job_keys: Optional[Sequence[Any]] = None,
        reuse: bool = False,
        sources: Optional[Sequence[JobSource]] = None,
    ) -> List[Any]:
        """Execute a group of jobs and return their results in order.

        Under DRIZZLE this is one group-scheduling round; under barrier
        modes the jobs run sequentially (the Spark-streaming behaviour).
        Records the group's observation as ``last_group`` for the tuner.
        ``sources[i]``, a stream source and the batch range job ``i``
        reads, feeds its placeholder source stages; jobs may share a plan.
        Jobs without a key are released once their results are returned;
        keyed jobs stay until their owner drops them (a checkpoint).
        """
        keys = list(job_keys) if job_keys is not None else [None] * len(plans)
        job_sources = list(sources) if sources is not None else [None] * len(plans)
        group_span = self.tracer.start_span(
            SPAN_GROUP,
            root=True,
            actor=DRIVER_ID,
            num_batches=len(plans),
            mode=self.conf.scheduling_mode.value,
        )
        start = self.clock.now()
        sched_before = self.metrics.counter(TIME_SCHEDULING).value
        xfer_before = self.metrics.counter(TIME_TASK_TRANSFER).value

        with group_span:
            try:
                if self.conf.scheduling_mode is SchedulingMode.PER_BATCH:
                    reads = source_reads(plans, job_sources)
                    results = [
                        self._run_barrier(plan, key, reuse, job_reads, source)
                        for plan, key, job_reads, source in zip(
                            plans, keys, reads, job_sources
                        )
                    ]
                else:
                    job_ids = self.submit_group(
                        plans, job_keys=keys, reuse=reuse, sources=job_sources
                    )
                    try:
                        results = [self.wait_job(job_id) for job_id in job_ids]
                    finally:
                        self._release_unkeyed(job_ids, keys)
            finally:
                # Runs before the span closes so the annotations are kept.
                sched = self.metrics.counter(TIME_SCHEDULING).value - sched_before
                xfer = self.metrics.counter(TIME_TASK_TRANSFER).value - xfer_before
                obs = self.last_group = GroupObservation(
                    first_batch=0,
                    batches=len(plans),
                    scheduling_s=sched,
                    task_transfer_s=xfer,
                    wall_s=self.clock.now() - start,
                    workers=len(self.placement_workers()),
                )
                group_span.annotate(
                    scheduling_s=sched, task_transfer_s=xfer, wall_s=obs.wall_s
                )
                if self.tuner is not None and obs.wall_s > 0:
                    decision = self.tuner.observe(obs)
                    self.tracer.instant(
                        EVENT_TUNER_DECISION,
                        parent=group_span,
                        actor=DRIVER_ID,
                        **decision.as_annotation(),
                    )
        return results

    def wait_job(self, job_id: int, timeout: Optional[float] = None) -> Any:
        with self._lock:
            job = self.jobs[job_id]
        # An explicit timeout wins; otherwise the conf-level deadline
        # applies, so an injected hang surfaces as a descriptive error
        # instead of blocking this thread forever.
        effective = timeout if timeout is not None else self.conf.stage_timeout_s
        if not job.done.wait(effective):
            raise self._stage_timeout_error(job, effective)
        if job.error is not None:
            raise job.error
        parts = [job.results[p] for p in range(job.plan.result_stage.num_tasks)]
        return job.plan.finalize(parts)

    def _stage_timeout_error(self, job: JobState, timeout_s: float) -> StageTimeout:
        """Build a StageTimeout naming the stalled stage, its pending
        partitions, and the workers they were last placed on."""
        with self._lock:
            stalled = next(
                (s for s in sorted(job.stage_remaining) if job.stage_remaining[s]),
                job.result_stage_index,
            )
            pending = sorted(job.stage_remaining.get(stalled, ()))
            workers = sorted(
                {
                    job.task_locations[(stalled, p)]
                    for p in pending
                    if (stalled, p) in job.task_locations
                }
            ) or ["<unplaced>"]
        return StageTimeout(job.job_id, stalled, pending, workers, timeout_s)

    @staticmethod
    def _note_fault(job: JobState, msg: str) -> None:
        """Append to the job's (bounded) fault history; caller holds the lock."""
        if len(job.fault_log) < 100:
            job.fault_log.append(msg)

    def job_id_for(self, job_key: Any) -> Optional[int]:
        """The id of the live job submitted under ``job_key``, if any."""
        with self._lock:
            return self._job_ids_by_key.get(job_key)

    def job_ids_through(self, batch_index: int) -> List[int]:
        """Ids of the live streaming jobs — keyed ``(output, batch)`` — for
        batches up to and including ``batch_index``."""
        with self._lock:
            return [
                job_id
                for job_key, job_id in self._job_ids_by_key.items()
                if isinstance(job_key, tuple)
                and len(job_key) == 2
                and job_key[1] <= batch_index
            ]

    def _release_unkeyed(self, job_ids: Sequence[int], keys: Sequence[Any]) -> None:
        """Drop the jobs submitted without a key: nothing can name them
        once their results are returned, so nothing waits for the drops."""
        unkeyed = [job_id for job_id, key in zip(job_ids, keys) if key is None]
        if unkeyed:
            self.drop_jobs(unkeyed, wait=False)

    def drop_job(self, job_id: int) -> None:
        """Garbage-collect a job's shuffle blocks cluster-wide."""
        self.drop_jobs([job_id])

    def drop_jobs(self, job_ids: Sequence[int], wait: bool = True) -> None:
        """Garbage-collect several jobs: their source entries at once, and
        in one round per worker every drop is posted (best effort — a lost
        worker's blocks are gone anyway), then, with ``wait``, each worker
        is waited for once, so the blocks are gone when this returns."""
        with self._lock:
            for job_id in job_ids:
                job = self.jobs.pop(job_id, None)
                if job is not None:
                    self._job_ids_by_key.pop(job.job_key, None)
            self.sources.release(job_ids)
            workers = list(self._alive)
        epoch = self._epoch_kwargs()
        for worker_id in workers:
            for job_id in job_ids:
                self.transport.post(worker_id, "drop_job", job_id, **epoch)
        if wait:
            for worker_id in workers:
                self.transport.flush(worker_id)

    # ------------------------------------------------------------------
    # Job registration (shared)
    # ------------------------------------------------------------------
    def _register_job(
        self,
        plan: PhysicalPlan,
        job_key: Any,
        pre_scheduled: bool,
        reuse: bool,
        reads: Optional[Dict[int, SourceRead]] = None,
        source: JobSource = None,
    ) -> JobState:
        with self._lock:
            prior: Optional[JobState] = None
            if job_key is not None and job_key in self._job_ids_by_key:
                prior_id = self._job_ids_by_key[job_key]
                prior = self.jobs.get(prior_id)
            if prior is not None:
                job_id = prior.job_id
                # Clear any parked tasks left over from the prior attempt.
                for worker_id in list(self._alive):
                    self.transport.try_call(
                        worker_id, "cancel_job", job_id, **self._epoch_kwargs()
                    )
            else:
                job_id = self._next_job_id
                self._next_job_id += 1
            job = JobState(
                job_id=job_id,
                job_key=job_key,
                plan=plan,
                pre_scheduled=pre_scheduled,
                batch_range=None if source is None else source[1],
            )
            for stage in plan.stages:
                job.stage_remaining[stage.stage_index] = set(range(stage.num_tasks))
                for spec in stage.input_shuffles:
                    job.consumers[spec.shuffle_id] = stage.stage_index
                if stage.output_shuffle is not None:
                    job.producers[stage.output_shuffle.shuffle_id] = stage.stage_index
            if prior is not None and reuse:
                self._carry_over_outputs(job, prior)
            self.jobs[job_id] = job
            self.sources.register(job_id, reads or {})
            if job_key is not None:
                self._job_ids_by_key[job_key] = job_id
            if self.tracer.enabled:
                if prior is not None:
                    self._finish_job_spans(prior, superseded=True)
                job.batch_span = self.tracer.start_span(
                    SPAN_BATCH,
                    root=True,
                    actor=DRIVER_ID,
                    job_id=job.job_id,
                    job_key=None if job_key is None else str(job_key),
                    mode=self.conf.scheduling_mode.value,
                    pre_scheduled=pre_scheduled,
                )
                for stage in plan.stages:
                    job.stage_spans[stage.stage_index] = self.tracer.start_span(
                        SPAN_STAGE,
                        parent=job.batch_span,
                        actor=DRIVER_ID,
                        stage=stage.stage_index,
                        num_tasks=stage.num_tasks,
                    )
            return job

    def _finish_job_spans(self, job: JobState, superseded: bool = False) -> None:
        """End a job's batch/stage spans (idempotent; lock held)."""
        if job.batch_span is None:
            return
        for span in job.stage_spans.values():
            span.end()
        if superseded:
            job.batch_span.annotate(superseded=True)
        if job.error is not None:
            job.batch_span.annotate(error=repr(job.error))
        job.batch_span.end()

    def _carry_over_outputs(self, job: JobState, prior: JobState) -> None:
        """Reuse intermediate map outputs from a prior attempt of the same
        micro-batch that still live on healthy workers (§3.3 lineage reuse)."""
        for (shuffle_id, map_index), worker_id in prior.map_status.items():
            if worker_id not in self._alive:
                continue
            epoch = prior.map_epochs.get((shuffle_id, map_index), 0)
            if not self.transport.try_call(
                worker_id, "has_map_output", job.job_id, shuffle_id, map_index, epoch
            ):
                continue
            producer_stage = job.producers.get(shuffle_id)
            if producer_stage is None:
                continue
            job.map_status[(shuffle_id, map_index)] = worker_id
            job.map_epochs[(shuffle_id, map_index)] = epoch
            job.stage_remaining[producer_stage].discard(map_index)
            job.task_locations[(producer_stage, map_index)] = worker_id

    @staticmethod
    def _stage_templates(plan: PhysicalPlan) -> List[StageTemplate]:
        return [
            StageTemplate(
                stage_index=s.stage_index,
                num_tasks=s.num_tasks,
                is_shuffle_map=s.output_shuffle is not None,
                shuffle_id=(
                    s.output_shuffle.shuffle_id if s.output_shuffle is not None else None
                ),
                locality=s.locality,
            )
            for s in plan.stages
        ]

    def _pick_worker(self, exclude: Optional[str] = None) -> str:
        workers = self.placement_workers()
        if not workers:
            raise ReproError("no live workers available")
        if exclude is not None and len(workers) > 1:
            workers = [w for w in workers if w != exclude]
        worker = workers[self._rr_cursor % len(workers)]
        self._rr_cursor += 1
        return worker

    # ------------------------------------------------------------------
    # Pre-scheduled (Drizzle) path
    # ------------------------------------------------------------------
    def submit_group(
        self,
        plans: Sequence[PhysicalPlan],
        job_keys: Optional[Sequence[Any]] = None,
        reuse: bool = False,
        sources: Optional[Sequence[JobSource]] = None,
    ) -> List[int]:
        """Pre-schedule every stage of every micro-batch in the group.

        Placement is computed once (scheduling-decision reuse, §3.1) and
        each worker receives a single ``launch_tasks`` RPC for the whole
        group, followed by a ``pre_populate`` message when reused outputs
        already satisfy some dependencies.  ``sources`` is as for
        :meth:`run_group`.
        """
        if not plans:
            return []
        keys = list(job_keys) if job_keys is not None else [None] * len(plans)
        job_sources = list(sources) if sources is not None else [None] * len(plans)
        reads = source_reads(plans, job_sources)
        sched_start = self.clock.now()
        per_worker: Dict[str, List[TaskDescriptor]] = {}
        prepopulate: Dict[int, List[Tuple[DepKey, str, int]]] = {}
        jobs: List[JobState] = []

        with self._lock:
            workers = self.placement_workers()
            if not workers:
                raise ReproError("no live workers available")
            policy = PlacementPolicy(workers, self.conf.slots_per_worker)
            # One assignment per DAG *shape* per group: jobs sharing the
            # (static) streaming DAG reuse the same scheduling decision
            # (§3.1); a context with several output operators contributes
            # one extra assignment per distinct shape.
            assignments: Dict[Tuple, Any] = {}
            for plan, key, job_reads, source in zip(plans, keys, reads, job_sources):
                job = self._register_job(
                    plan, key, pre_scheduled=True, reuse=reuse, reads=job_reads,
                    source=source,
                )
                jobs.append(job)
                shape = tuple(
                    (
                        s.num_tasks,
                        s.output_shuffle.shuffle_id if s.output_shuffle else None,
                        tuple(spec.shuffle_id for spec in s.input_shuffles),
                    )
                    for s in plan.stages
                )
                if shape not in assignments:
                    assignments[shape] = policy.assign(self._stage_templates(plan))
                completed = self._completed_deps(job)
                if completed:
                    prepopulate[job.job_id] = completed
                # Place every remaining task first: a map's descriptor
                # points at its consumers' locations.
                remaining = [
                    (stage, partition)
                    for stage in plan.stages
                    for partition in sorted(job.stage_remaining[stage.stage_index])
                ]
                now = self.clock.now()
                for stage, partition in remaining:
                    slots = assignments[shape].by_stage[stage.stage_index]
                    job.task_locations[(stage.stage_index, partition)] = slots[
                        partition
                    ].worker_id
                    job.task_started[(stage.stage_index, partition)] = now
                for stage, partition in remaining:
                    worker_id = job.task_locations[(stage.stage_index, partition)]
                    per_worker.setdefault(worker_id, []).append(
                        self._make_descriptor(job, stage, partition)
                    )
        job_ids = [job.job_id for job in jobs]
        sched_end = self.clock.now()
        self.metrics.counter(TIME_SCHEDULING).add(sched_end - sched_start)
        self.metrics.counter(COUNT_GROUPS_SCHEDULED).add(1)
        self.metrics.counter(COUNT_BATCHES_EXECUTED).add(len(plans))
        if self.tracer.enabled:
            # Exact same window as the TIME_SCHEDULING counter add above,
            # so trace totals and counters agree.  The span is group-wide;
            # ``batches`` lets the analyzer attribute its cost per batch.
            self.tracer.record_span(
                SPAN_TASK_SCHEDULE,
                sched_start,
                sched_end,
                actor=DRIVER_ID,
                batches=list(job_ids),
                tasks=sum(len(d) for d in per_worker.values()),
            )

        # One launch per worker, one worker at a time, in worker order:
        # with the synchronous inline executor the launch *runs* the
        # tasks, and that determinism is part of the inproc contract.
        xfer_start = self.clock.now()
        ek = self._epoch_kwargs()
        lost: Dict[str, str] = {}
        for worker_id in sorted(per_worker):
            self.metrics.counter(COUNT_TASKS_LAUNCHED).add(len(per_worker[worker_id]))
            self.metrics.counter(COUNT_LAUNCH_RPCS).add(1)
            try:
                self.transport.call(
                    worker_id, "launch_tasks", per_worker[worker_id], **ek
                )
            except WorkerLost as err:
                lost[worker_id] = err.reason
        # Error fidelity: each loss report carries the full split of the
        # group launch, not just the one failed id.
        survived = sorted(set(per_worker) - set(lost))
        for worker_id, why in sorted(lost.items()):
            self.on_worker_lost(
                worker_id,
                reason=(
                    f"lost during group launch ({why}); "
                    f"failed={sorted(lost)} survived={survived}"
                ),
            )
        for job_id, completed in prepopulate.items():
            for worker_id in self.alive_workers():
                # Best effort: a worker that misses it parks its reduce
                # tasks until the stage deadline.
                self._seed_dependencies(worker_id, job_id, completed)
        xfer_end = self.clock.now()
        self.metrics.counter(TIME_TASK_TRANSFER).add(xfer_end - xfer_start)
        if self.tracer.enabled:
            self.tracer.record_span(
                SPAN_TASK_LAUNCH_RPC,
                xfer_start,
                xfer_end,
                actor=DRIVER_ID,
                batches=list(job_ids),
                rpcs=len(per_worker),
            )

        # A job whose result partitions were all carried over (rare: zero
        # remaining everywhere) completes immediately.
        with self._lock:
            for job in jobs:
                self._check_job_done(job)
        return job_ids

    @staticmethod
    def _reducers_of(spec: ShuffleSpec, map_index: int) -> Sequence[int]:
        """The reducers that consume map ``map_index``: its one parent in
        a tree shuffle (§3.6), every reducer in an all-to-all one."""
        if spec.structure == "tree":
            return [map_index // spec.fan_in]
        return range(spec.num_reducers)

    def _make_descriptor(
        self, job: JobState, stage: StageSpec, partition: int
    ) -> TaskDescriptor:
        """A pre-scheduled task's descriptor.  Its ``downstream`` points at
        the consumers' current locations in ``job.task_locations``, live
        workers only — at group launch the fresh placement, after a
        failure the re-placed tasks ("the scheduler also updates the
        active upstream tasks to send outputs ... to the new machines")."""
        downstream: Dict[int, str] = {}
        spec = stage.output_shuffle
        consumer = job.consumers.get(spec.shuffle_id) if spec is not None else None
        if consumer is not None:
            for r in self._reducers_of(spec, partition):
                where = job.task_locations.get((consumer, r))
                if where in self._alive:
                    downstream[r] = where
        return TaskDescriptor(
            task_id=TaskId(
                job.job_id,
                stage.stage_index,
                partition,
                job.attempts.get((stage.stage_index, partition), 0),
            ),
            plan=job.plan,
            pre_scheduled=True,
            deps=stage.task_dependencies(partition),
            downstream=downstream,
            trace_ctx=self._stage_ctx(job, stage.stage_index),
            read=self._read_spec(job, stage, partition),
        )

    @staticmethod
    def _read_spec(
        job: JobState, stage: StageSpec, partition: int
    ) -> Optional[ReadSpec]:
        """What a source task reads (None for a shuffle reader)."""
        if not stage.is_source:
            return None
        batch_range = job.batch_range if stage.source_fn is stream_input else None
        return ReadSpec(job.job_id, stage.stage_index, batch_range, partition)

    @staticmethod
    def _stage_ctx(job: JobState, stage_index: int) -> Optional[SpanContext]:
        """Trace context a task descriptor for this stage should carry."""
        span = job.stage_spans.get(stage_index)
        return span.context if span is not None else None

    # ------------------------------------------------------------------
    # Barrier (Spark) path
    # ------------------------------------------------------------------
    def _run_barrier(
        self,
        plan: PhysicalPlan,
        job_key: Any,
        reuse: bool,
        reads: Dict[int, SourceRead],
        source: JobSource,
    ) -> Any:
        job = self._register_job(plan, job_key, False, reuse, reads, source)
        self.metrics.counter(COUNT_BATCHES_EXECUTED).add(1)
        try:
            for stage in plan.stages:
                with self._lock:
                    pending = sorted(job.stage_remaining[stage.stage_index])
                    for partition in pending:
                        self._launch_barrier_task(job, stage.stage_index, partition)
                self._await_stage(job, stage.stage_index)
                if job.error is not None:
                    raise job.error
            with self._lock:
                self._check_job_done(job)
            return self.wait_job(job.job_id)
        finally:
            self._release_unkeyed([job.job_id], [job_key])

    def _launch_barrier_task(
        self, job: JobState, stage_index: int, partition: int
    ) -> None:
        """Launch one task if its inputs are available, else park it.

        Caller holds the driver lock.  One RPC per task — the Spark
        baseline's per-task launch cost that group scheduling amortizes.
        """
        stage = job.plan.stages[stage_index]
        deps = stage.task_dependencies(partition)
        missing = [d for d in deps if d not in job.map_status]
        if missing:
            job.blocked.add((stage_index, partition))
            return
        sched_start = self.clock.now()
        worker_id = self._pick_worker()
        attempt = job.attempts.get((stage_index, partition), 0)
        desc = TaskDescriptor(
            task_id=TaskId(job.job_id, stage_index, partition, attempt),
            plan=job.plan,
            pre_scheduled=False,
            deps=frozenset(),
            map_locations={d: job.map_status[d] for d in deps},
            map_epochs={d: job.map_epochs.get(d, 0) for d in deps},
            trace_ctx=self._stage_ctx(job, stage_index),
            read=self._read_spec(job, stage, partition),
        )
        job.task_locations[(stage_index, partition)] = worker_id
        job.task_started[(stage_index, partition)] = self.clock.now()
        job.blocked.discard((stage_index, partition))
        sched_end = self.clock.now()
        self.metrics.counter(TIME_SCHEDULING).add(sched_end - sched_start)
        self.metrics.counter(COUNT_TASKS_LAUNCHED).add(1)
        self.metrics.counter(COUNT_LAUNCH_RPCS).add(1)
        if self.tracer.enabled:
            self.tracer.record_span(
                SPAN_TASK_SCHEDULE,
                sched_start,
                sched_end,
                parent=desc.trace_ctx,
                actor=DRIVER_ID,
                stage=stage_index,
                partition=partition,
            )
        xfer_start = self.clock.now()
        try:
            self.transport.call(
                worker_id, "launch_tasks", [desc], **self._epoch_kwargs()
            )
        finally:
            # WorkerLost propagates; the monitor path retries the task.
            xfer_end = self.clock.now()
            self.metrics.counter(TIME_TASK_TRANSFER).add(xfer_end - xfer_start)
            if self.tracer.enabled:
                self.tracer.record_span(
                    SPAN_TASK_LAUNCH_RPC,
                    xfer_start,
                    xfer_end,
                    parent=desc.trace_ctx,
                    actor=DRIVER_ID,
                    stage=stage_index,
                    partition=partition,
                    worker=worker_id,
                )

    def _await_stage(self, job: JobState, stage_index: int) -> None:
        deadline = (
            None
            if self.conf.stage_timeout_s is None
            else self.clock.now() + self.conf.stage_timeout_s
        )
        with self._cv:
            while job.error is None and any(
                job.stage_remaining[s] for s in range(stage_index + 1)
            ):
                if deadline is not None and self.clock.now() > deadline:
                    raise self._stage_timeout_error(job, self.conf.stage_timeout_s)
                self._cv.wait(timeout=0.5)

    # ------------------------------------------------------------------
    # Worker -> driver callbacks
    # ------------------------------------------------------------------
    def task_finished(self, report: TaskReport) -> None:
        with self._lock:
            job = self.jobs.get(report.task_id.job_id)
            if job is None or job.is_finished():
                return
            if report.worker_id not in self._alive:
                # A report racing the loss of its worker: the machine's
                # block store is gone (or about to be), so recording its
                # outputs would point consumers at a dead holder — and a
                # dead holder cannot be invalidated by the FetchFailed
                # path, leaving them refetching forever.  Recovery already
                # resubmitted this task.
                return
            stage_index = report.task_id.stage_index
            partition = report.task_id.partition
            if not report.succeeded:
                self._handle_task_failure(job, report)
                self._cv.notify_all()
                return
            stage = job.plan.stages[stage_index]
            if partition not in job.stage_remaining[stage_index]:
                return  # stale duplicate from an old attempt
            job.stage_remaining[stage_index].discard(partition)
            if not job.stage_remaining[stage_index]:
                span = job.stage_spans.get(stage_index)
                if span is not None:
                    span.end()
            started = job.task_started.get((stage_index, partition))
            if started is not None:
                job.task_durations.setdefault(stage_index, []).append(
                    self.clock.now() - started
                )
            job.task_locations[(stage_index, partition)] = report.worker_id
            if stage.output_shuffle is not None:
                dep = (stage.output_shuffle.shuffle_id, partition)
                job.map_status[dep] = report.worker_id
                job.map_epochs[dep] = report.task_id.attempt
                if job.pre_scheduled:
                    self._forward_to_relocated(job, stage, partition, report.worker_id)
                else:
                    self._unblock_barrier_tasks(job)
            if stage.is_result:
                job.results[partition] = report.result
            self._check_job_done(job)
            self._cv.notify_all()

    def _forward_to_relocated(
        self, job: JobState, map_stage: StageSpec, map_index: int, holder: str
    ) -> None:
        """A map task completed, but some of its consumers were re-placed
        after the map's descriptor was built; its worker-to-worker
        notification went to the old (dead) machines.  The driver forwards
        the completion to the consumers' current locations."""
        spec = map_stage.output_shuffle
        assert spec is not None
        consumer = job.consumers.get(spec.shuffle_id)
        if consumer is None:
            return
        dep = (spec.shuffle_id, map_index)
        completed = [(dep, holder, job.map_epochs.get(dep, 0))]
        remaining = job.stage_remaining.get(consumer, set())
        for r in self._reducers_of(spec, map_index):
            if (consumer, r) not in job.relocated or r not in remaining:
                continue
            where = job.task_locations.get((consumer, r))
            if where in self._alive:
                self._seed_dependencies(where, job.job_id, completed)

    def _unblock_barrier_tasks(self, job: JobState) -> None:
        for stage_index, partition in sorted(job.blocked):
            stage = job.plan.stages[stage_index]
            deps = stage.task_dependencies(partition)
            if all(d in job.map_status for d in deps):
                self._launch_barrier_task(job, stage_index, partition)

    def _check_job_done(self, job: JobState) -> None:
        if not job.done.is_set() and all(
            not rem for rem in job.stage_remaining.values()
        ):
            job.done.set()
            self._finish_job_spans(job)

    def _fail_job(self, job: JobState, err: BaseException) -> None:
        """End a job with ``err`` (caller holds the lock)."""
        job.error = err
        job.done.set()
        self._finish_job_spans(job)

    def _handle_task_failure(self, job: JobState, report: TaskReport) -> None:
        err = report.error
        if isinstance(err, FetchFailed):
            holder = err.worker_id
            self._note_fault(
                job,
                f"fetch failed: shuffle={err.shuffle_id} map={err.map_index} "
                f"holder={holder}",
            )
            if holder != "<unknown>" and not self.transport.is_alive(holder):
                # The block's machine is gone: full worker-loss handling.
                self._worker_lost_locked(
                    holder, reason="unreachable during shuffle fetch"
                )
            # Invalidate unconditionally.  When the holder was *already*
            # removed from _alive, _worker_lost_locked above is a no-op —
            # but a stale completion report may have re-registered the
            # dead holder in map_status, and without invalidation the
            # consumer would refetch the same missing block forever.
            self._invalidate_map_output(job, err.shuffle_id, err.map_index)
            # Retry the failed task itself.
            stage_index = report.task_id.stage_index
            partition = report.task_id.partition
            if partition in job.stage_remaining.get(stage_index, set()):
                job.attempts[(stage_index, partition)] = (
                    job.attempts.get((stage_index, partition), 0) + 1
                )
                self._resubmit_task(job, stage_index, partition)
            return
        # A payload that cannot cross the executor boundary is a
        # configuration/programming error, not a task fault: surface it
        # unwrapped so callers see the named capture directly.
        if not isinstance(err, SerializationError):
            err = TaskError(str(report.task_id), err or ReproError("unknown"))
        self._fail_job(job, err)

    def _invalidate_map_output(
        self, job: JobState, shuffle_id: int, map_index: int
    ) -> None:
        if shuffle_id < 0:
            return
        dep = (shuffle_id, map_index)
        if dep not in job.map_status:
            return
        del job.map_status[dep]
        job.map_epochs.pop(dep, None)
        producer = job.producers.get(shuffle_id)
        if producer is None:
            return
        job.stage_remaining[producer].add(map_index)
        job.attempts[(producer, map_index)] = (
            job.attempts.get((producer, map_index), 0) + 1
        )
        self._resubmit_task(job, producer, map_index)

    # ------------------------------------------------------------------
    # Worker-loss recovery (§3.3)
    # ------------------------------------------------------------------
    def on_worker_lost(self, worker_id: str, reason: str = "worker lost") -> None:
        with self._lock:
            self._worker_lost_locked(worker_id, reason=reason)
            self._cv.notify_all()

    def _worker_lost_locked(self, worker_id: str, reason: str = "worker lost") -> None:
        if worker_id not in self._alive:
            return
        self._alive.discard(worker_id)
        self._draining.discard(worker_id)
        self.metrics.counter(COUNT_RECOVERIES).add(1)
        self.transport.mark_dead(worker_id)
        self._annotate_scale_event(worker_id, "lost", reason)
        if self.journal is not None:
            self.journal.record_membership(sorted(self._alive - self._draining))
        for job in self.jobs.values():
            if not job.is_finished():
                self._note_fault(job, f"worker {worker_id} lost: {reason}")
        if not self._alive:
            for job in self.jobs.values():
                if not job.is_finished():
                    self._fail_job(
                        job, WorkerLost(worker_id, f"last worker lost ({reason})")
                    )
            return
        # Recovery tasks across all in-flight micro-batches are resubmitted
        # together — this is the paper's parallel recovery.
        recovery_span = self.tracer.start_span(
            SPAN_RECOVERY, root=True, actor=DRIVER_ID, worker=worker_id
        )
        with recovery_span:
            resubmitted = 0
            jobs_touched = 0
            for job in self.jobs.values():
                if job.is_finished():
                    continue
                count = self._recover_job(job, worker_id)
                resubmitted += count
                jobs_touched += 1 if count else 0
            recovery_span.annotate(
                resubmitted=resubmitted, jobs_recovered=jobs_touched
            )

    def _recover_job(self, job: JobState, worker_id: str) -> int:
        """Resubmit a job's work lost with ``worker_id``; returns how many
        tasks were resubmitted."""
        resubmitted = 0
        # 1. Map outputs lost with the machine, still needed downstream.
        lost_deps = [d for d, w in job.map_status.items() if w == worker_id]
        for shuffle_id, map_index in lost_deps:
            consumer = job.consumers.get(shuffle_id)
            still_needed = consumer is not None and bool(
                job.stage_remaining.get(consumer)
            )
            del job.map_status[(shuffle_id, map_index)]
            job.map_epochs.pop((shuffle_id, map_index), None)
            if not still_needed:
                continue
            producer = job.producers[shuffle_id]
            if map_index not in job.stage_remaining[producer]:
                job.stage_remaining[producer].add(map_index)
                job.attempts[(producer, map_index)] = (
                    job.attempts.get((producer, map_index), 0) + 1
                )
                self._resubmit_task(job, producer, map_index)
                resubmitted += 1
        # 2. Unfinished tasks that were placed on the lost machine.
        for (stage_index, partition), where in sorted(job.task_locations.items()):
            if where != worker_id:
                continue
            if partition not in job.stage_remaining.get(stage_index, set()):
                continue
            job.attempts[(stage_index, partition)] = (
                job.attempts.get((stage_index, partition), 0) + 1
            )
            self._resubmit_task(job, stage_index, partition)
            resubmitted += 1
        return resubmitted

    def _resubmit_task(
        self,
        job: JobState,
        stage_index: int,
        partition: int,
        exclude: Optional[str] = None,
    ) -> None:
        """Re-place one task on a live worker (caller holds the lock)."""
        key = (stage_index, partition)
        attempts = job.attempts.get(key, 0)
        if attempts > self.conf.max_task_retries:
            # Recovery budget exhausted: fail the job with the fault
            # history instead of resubmitting forever.
            self._fail_job(
                job,
                RecoveryBudgetExceeded(
                    f"task (stage={stage_index}, partition={partition}) "
                    f"of job {job.job_id}",
                    attempts,
                    job.fault_log,
                ),
            )
            return
        if self.tracer.enabled:
            # Parent to the batch span so resubmissions (and the recovered
            # tasks' compute spans, via the stage context on the new
            # descriptor) stay inside the batch's trace tree.
            self.tracer.instant(
                EVENT_TASK_RESUBMIT,
                parent=job.batch_span,
                actor=DRIVER_ID,
                stage=stage_index,
                partition=partition,
                attempt=attempts,
            )
        if not job.pre_scheduled:
            try:
                self._launch_barrier_task(job, stage_index, partition)
            except WorkerLost:
                job.blocked.add(key)
            return
        worker_id = self._pick_worker(exclude=exclude)
        desc = self._make_descriptor(job, job.plan.stages[stage_index], partition)
        job.task_locations[key] = worker_id
        job.task_started[key] = self.clock.now()
        job.relocated.add(key)
        self.metrics.counter(COUNT_TASKS_LAUNCHED).add(1)
        self.metrics.counter(COUNT_LAUNCH_RPCS).add(1)
        if not self.transport.try_call(
            worker_id, "launch_tasks", [desc], **self._epoch_kwargs()
        ):
            failed = "recovery launch"
        else:
            # Pre-populate dependencies already satisfied (§3.3).
            completed = self._completed_deps(job, desc.deps)
            if not completed or self._seed_dependencies(
                worker_id, job.job_id, completed
            ):
                return
            failed = "pre_populate"
        # A recovery launch (or its dependency seed) that silently
        # vanishes wedges the task forever.  One lost message is not proof
        # the worker died (the heartbeat monitor owns that verdict) —
        # declaring it lost here cascades: the recovery launches it
        # triggers can themselves fail and take down the next worker.
        # Re-place just this task instead (a parked duplicate is harmless:
        # first completion wins); the attempt budget bounds the loop, and
        # _pick_worker falls back to the excluded worker when it is the
        # last one standing.
        self._note_fault(
            job,
            f"{failed} to {worker_id} failed "
            f"(stage={stage_index}, partition={partition})",
        )
        if partition in job.stage_remaining.get(stage_index, set()):
            job.attempts[key] = attempts + 1
            self._resubmit_task(job, stage_index, partition, exclude=worker_id)
