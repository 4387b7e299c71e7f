"""Worker: executor slots + the pre-scheduling local scheduler (§3.2).

Each worker owns:

* a pool of ``slots_per_worker`` executor threads,
* a :class:`BlockStore` holding shuffle map outputs,
* a *local scheduler* — one :class:`PendingTaskTable` per job — that parks
  pre-scheduled tasks until their upstream notifications arrive, then
  activates them ("when all the data dependencies for an inactive task
  have been met, the local scheduler makes the task active and runs it").

``drop_job`` is the one release point for all of a job's state here.

A source task reads its own input: its read spec is resolved through the
driver's source registry here, before the executor backend gets the task.

Data flows worker-to-worker: map tasks write to their local block store
and push a metadata notification to each downstream worker; the activated
reduce tasks pull the actual buckets (push-metadata, pull-data), those one
notification activates together with one round trip per peer.
"""

from __future__ import annotations

import pickle
import random
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.chaos.injector import chaos_hit
from repro.chaos.plan import (
    KIND_WORKER_KILL,
    SITE_EXEC_COMPUTE,
    SITE_WORKER_TASK,
)
from repro.common.clock import Clock, WallClock
from repro.common.config import EngineConf
from repro.common.errors import (
    FetchFailed,
    SerializationError,
    StaleDriverEpoch,
    WorkerLost,
)
from repro.common.metrics import (
    COUNT_HA_FENCED,
    COUNT_HA_PARKED_REPORTS,
    COUNT_NET_FETCH_BATCHES,
    COUNT_TELEMETRY_RECORDS,
    COUNT_TELEMETRY_TASKS,
    GAUGE_TELEMETRY_BACKLOG,
    HIST_NET_BUCKETS_PER_FETCH,
    HIST_TELEMETRY_QUEUE_DELAY,
    TELEMETRY_STAGE_LATENCY_PREFIX,
    TIME_COMPUTE,
    MetricsRegistry,
)
from repro.core.prescheduling import DepKey, PendingTaskTable
from repro.dag.serde import dumps_data
from repro.engine.blocks import BUCKET_OK, BlockStore
from repro.engine.executors import ComputeRequest, create_backend
from repro.engine.rpc import BaseTransport
from repro.engine.task import SourceRegistry, TaskDescriptor, TaskId, TaskReport
from repro.obs.live import DeltaSnapshotter
from repro.obs.names import (
    SPAN_TASK_COMPUTE,
    SPAN_TASK_EXEC,
    SPAN_TASK_FETCH,
    SPAN_TASK_REPORT,
)
from repro.obs.trace import NULL_RECORDER, Recorder

DRIVER_ID = "driver"


class _FetchPlan(NamedTuple):
    """Where one reduce task's input buckets come from."""

    partition: int
    per_spec: List[List[DepKey]]  # per input shuffle, its deps in map order
    local: List[DepKey]  # read from the own BlockStore
    by_peer: Dict[str, List[DepKey]]  # fetched, one round trip per peer
    min_epochs: Dict[DepKey, int]


# A plan's remote replies: peer -> {dep: bucket}, its still-pickled part
# of a shared reply, or the failure that peer's part of the fetch ended in.
_Remote = Dict[str, Union[Dict[DepKey, List], bytes, FetchFailed]]


def _received(
    peer: str, deps: List[DepKey], replies: Sequence[Tuple[str, Optional[List]]]
) -> Union[Dict[DepKey, List], FetchFailed]:
    """One plan's replies from ``peer``: its buckets, or a FetchFailed
    naming its first map output the peer reported missing."""
    for (shuffle_id, map_index), (status, _) in zip(deps, replies):
        if status != BUCKET_OK:
            return FetchFailed(shuffle_id, map_index, peer)
    return {dep: bucket for dep, (_, bucket) in zip(deps, replies)}


class _SharedFetch:
    """The reduce tasks of one job that became ready together: the first
    member fetches for all of them and hands each sibling its plan and
    replies before submitting it.  The replies live here and nowhere
    else, so they go when the last member has taken its own."""

    def __init__(self, members: List[TaskDescriptor]):
        self.members = members
        self.handed: Dict[TaskId, Tuple[_FetchPlan, _Remote]] = {}


class Worker:
    """One simulated machine: executor threads, block store, local scheduler."""

    def __init__(
        self,
        worker_id: str,
        transport: BaseTransport,
        conf: EngineConf,
        metrics: MetricsRegistry,
        clock: Optional[Clock] = None,
        enable_heartbeats: Optional[bool] = None,
        tracer: Optional[Recorder] = None,
        sources: Optional[SourceRegistry] = None,
    ):
        self.worker_id = worker_id
        self.transport = transport
        self.conf = conf
        self.metrics = metrics
        self.clock = clock or WallClock()
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        self.blocks = BlockStore(worker_id)
        # Where source tasks' read specs resolve: the driver's registry.
        self.sources = sources if sources is not None else SourceRegistry()
        self.enable_heartbeats = (
            conf.monitor.enable_heartbeats
            if enable_heartbeats is None
            else enable_heartbeats
        )

        self._backend = create_backend(conf, worker_id)
        self._lock = threading.Lock()
        self._pending: Dict[int, PendingTaskTable] = {}  # job_id -> table
        self._parked: Dict[Tuple[int, str], TaskDescriptor] = {}
        # job_id -> (shuffle_id, map_index) -> (holder worker, epoch): which
        # worker holds the block and the producing attempt it was written
        # under (readers refuse older co-named blocks — see BlockStore).
        self._dep_locations: Dict[int, Dict[DepKey, Tuple[str, int]]] = {}
        self._dead = False
        self._hb_thread: Optional[threading.Thread] = None
        self._stop_hb = threading.Event()
        # Live telemetry (repro.obs.live): a *private* registry so shipped
        # metrics attribute to this worker even when `metrics` is the
        # registry shared across the whole LocalCluster.  _telemetry_loop
        # ships deltas over the transport's uncounted plumbing path.
        self.telemetry_metrics: Optional[MetricsRegistry] = None
        self._telemetry_snap: Optional[DeltaSnapshotter] = None
        self._accepted_at: Dict[str, float] = {}
        self._tel_thread: Optional[threading.Thread] = None
        self._stop_tel = threading.Event()
        if conf.telemetry.enabled:
            self.telemetry_metrics = MetricsRegistry(self.clock)
            self._telemetry_snap = DeltaSnapshotter(self.telemetry_metrics)
        # Driver session-epoch fencing (repro.ha): the highest epoch seen
        # on any driver message.  A message stamped with a *lower* epoch
        # comes from a zombie — a driver believed dead whose restart
        # already claimed a newer epoch — and is refused.  0 = unfenced
        # (HA off): stamps never arrive and every message passes.
        self._adopted_epoch = 0
        # Extra per-record work injected by benchmarks (simulating compute).
        self.compute_delay_per_task_s = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.transport.register(self.worker_id, self)
        if self.enable_heartbeats:
            self._stop_hb.clear()
            self._hb_thread = threading.Thread(
                target=self._heartbeat_loop, name=f"{self.worker_id}-hb", daemon=True
            )
            self._hb_thread.start()
        if self._telemetry_snap is not None:
            self._stop_tel.clear()
            self._tel_thread = threading.Thread(
                target=self._telemetry_loop, name=f"{self.worker_id}-tel", daemon=True
            )
            self._tel_thread.start()

    def kill(self) -> None:
        """Crash this machine: no more heartbeats, its block store is
        unreachable, in-flight tasks have no effect."""
        with self._lock:
            self._dead = True
            self._pending.clear()
            self._parked.clear()
            self._accepted_at.clear()
        self._stop_hb.set()
        self._stop_tel.set()
        self.transport.mark_dead(self.worker_id)

    def shutdown(self) -> None:
        self._stop_hb.set()
        self._stop_tel.set()
        self._backend.shutdown(wait=True)

    @property
    def is_dead(self) -> bool:
        with self._lock:
            return self._dead

    def _heartbeat_loop(self) -> None:
        while not self._stop_hb.wait(self.conf.monitor.heartbeat_interval_s):
            if self.is_dead:
                return
            self.transport.try_call(
                DRIVER_ID, "heartbeat", self.worker_id, time.monotonic()
            )

    def _telemetry_loop(self) -> None:
        while not self._stop_tel.wait(self.conf.telemetry.interval_s):
            if self.is_dead:
                return
            self.ship_telemetry()

    def ship_telemetry(self) -> bool:
        """Ship the next telemetry delta to the driver (uncounted, like
        ``__announce__``/``__ping__``).  An empty delta still ships: these
        arrivals are what keeps the worker's timeline fresh."""
        if self._telemetry_snap is None or self.is_dead:
            return False
        delta = self._telemetry_snap.delta()
        return self.transport.ship_telemetry(DRIVER_ID, self.worker_id, delta)

    # ------------------------------------------------------------------
    # Driver -> worker RPCs
    # ------------------------------------------------------------------
    def _fence(self, driver_epoch: Optional[int]) -> None:
        """Adopt or refuse a driver session epoch (repro.ha fencing).

        Raises :class:`StaleDriverEpoch` when the stamp is *older* than
        one already adopted: only a restarted driver can have bumped the
        epoch, so the sender is a zombie and must not mutate this worker.
        Unstamped messages (``None`` — HA off, or plumbing) always pass."""
        if driver_epoch is None:
            return
        with self._lock:
            if driver_epoch < self._adopted_epoch:
                self.metrics.counter(COUNT_HA_FENCED).add(1)
                raise StaleDriverEpoch(driver_epoch, self._adopted_epoch)
            self._adopted_epoch = driver_epoch

    def launch_tasks(
        self,
        descriptors: List[TaskDescriptor],
        driver_epoch: Optional[int] = None,
    ) -> None:
        """Receive a batch of tasks in one message.  Under group scheduling
        this batch spans every micro-batch in the group (§3.1).

        Every descriptor is registered, under one hold of the lock, before
        any task is submitted: a notification lands before all of them or
        after all of them, so which reduce tasks become ready together —
        and share one fetch — does not depend on thread interleaving."""
        self._fence(driver_epoch)
        ready: List[TaskDescriptor] = []
        with self._lock:
            if self._dead:
                return
            for desc in descriptors:
                if self._register(desc):
                    ready.append(desc)
        self._submit_ready(ready, share_fetch=True)

    def _register(self, desc: TaskDescriptor) -> bool:
        """Park a pre-scheduled task until its deps arrive; True when it
        can run now.  Caller holds ``self._lock``."""
        self._tel_note_accept(str(desc.task_id))
        if desc.pre_scheduled and desc.deps:
            job_id = desc.task_id.job_id
            table = self._pending.setdefault(job_id, PendingTaskTable())
            # Key by attempt so a recovery resubmission of the same
            # task registers cleanly alongside its dead predecessor.
            key = str(desc.task_id)
            if not table.register(key, desc.deps):
                self._parked[(job_id, key)] = desc
                self._tel_note_backlog()
                return False
            # All deps were already satisfied by early notifications.
        return True

    def _submit_ready(
        self, ready: Sequence[TaskDescriptor], share_fetch: bool
    ) -> None:
        """Submit tasks that just became runnable.  With ``share_fetch``,
        the first-attempt pre-scheduled shuffle readers of one job form a
        fetch group: only its first member is submitted, and it fetches
        for every member (see :meth:`_fetch_for_group`).  Re-placed tasks
        (attempt > 0) and barrier (PER_BATCH) tasks fetch alone."""
        groups: Dict[int, List[TaskDescriptor]] = {}
        for desc in ready:
            if (
                share_fetch
                and desc.pre_scheduled
                and desc.task_id.attempt == 0
                and not desc.stage.is_source
            ):
                groups.setdefault(desc.task_id.job_id, []).append(desc)
            else:
                self._backend.submit(self._run_task, desc)
        for members in groups.values():
            share = _SharedFetch(members) if len(members) > 1 else None
            self._backend.submit(self._run_task, members[0], share)

    def _tel_note_accept(self, key: str) -> None:
        """Stamp a task's accept time for the queueing-delay signal.
        Caller holds ``self._lock``.  The map is soft-capped: a driver
        that cancels huge jobs wholesale could otherwise strand stamps."""
        if self.telemetry_metrics is None:
            return
        if len(self._accepted_at) > 8192:
            self._accepted_at.clear()
        self._accepted_at[key] = self.clock.now()

    def _tel_note_backlog(self) -> None:
        """Refresh the parked-task backlog gauge.  Caller holds ``self._lock``."""
        if self.telemetry_metrics is not None:
            self.telemetry_metrics.gauge(GAUGE_TELEMETRY_BACKLOG).set(
                len(self._parked)
            )

    def pre_populate(
        self,
        job_id: int,
        completed: List[Tuple[DepKey, str, int]],
        driver_epoch: Optional[int] = None,
    ) -> None:
        """Driver-supplied already-completed dependencies (§3.3 recovery
        onto a new machine): ``((shuffle_id, map_index), holder, epoch)``
        entries, ``epoch`` being the producing attempt."""
        self._fence(driver_epoch)
        self._deps_available(job_id, completed, share_fetch=False)

    def cancel_job(self, job_id: int, driver_epoch: Optional[int] = None) -> None:
        self._fence(driver_epoch)
        with self._lock:
            self._unpark_job(job_id)

    def drop_job(self, job_id: int, driver_epoch: Optional[int] = None) -> None:
        """Release everything this worker holds for the job: its blocks,
        the locations it learned, its pending table and parked tasks."""
        self._fence(driver_epoch)
        self.blocks.drop_job(job_id)
        with self._lock:
            self._unpark_job(job_id)
            self._dep_locations.pop(job_id, None)

    def _unpark_job(self, job_id: int) -> None:
        """Forget the job's pending table, parked tasks and their accept
        stamps.  Caller holds ``self._lock``."""
        self._pending.pop(job_id, None)
        doomed = [k for k in self._parked if k[0] == job_id]
        for k in doomed:
            del self._parked[k]
            self._accepted_at.pop(k[1], None)
        if doomed:
            self._tel_note_backlog()

    # ------------------------------------------------------------------
    # Worker -> worker RPCs
    # ------------------------------------------------------------------
    def notify_output(
        self,
        job_id: int,
        shuffle_id: int,
        map_index: int,
        src_worker: str,
        epoch: int = 0,
    ) -> None:
        """An upstream map task finished; wake any now-ready local task.
        ``epoch`` is the producing attempt — readers use it as the minimum
        epoch a served block must carry (stale co-named blocks miss)."""
        self._deps_available(
            job_id, [((shuffle_id, map_index), src_worker, epoch)], share_fetch=True
        )

    def _deps_available(
        self,
        job_id: int,
        available: Sequence[Tuple[DepKey, str, int]],
        share_fetch: bool,
    ) -> None:
        """Record where each ``(dep, holder, epoch)`` lives, then submit
        every parked task this makes ready.  The reduce tasks one
        notification wakes all wait on the same map outputs, so with
        ``share_fetch`` they share a fetch; pre-populated tasks (§3.3
        recovery) fetch alone."""
        to_run: List[TaskDescriptor] = []
        with self._lock:
            if self._dead:
                return
            locations = self._dep_locations.setdefault(job_id, {})
            table = self._pending.setdefault(job_id, PendingTaskTable())
            for dep, holder, epoch in available:
                locations[dep] = (holder, epoch)
                for key in table.notify(dep):
                    desc = self._parked.pop((job_id, key), None)
                    if desc is not None:
                        to_run.append(desc)
            if to_run:
                self._tel_note_backlog()
        self._submit_ready(to_run, share_fetch)

    def fetch_buckets(
        self, job_id: int, requests: Sequence[Tuple], parts: Sequence[int] = ()
    ) -> List:
        """Serve every bucket a reduce task — or a fetch group of them —
        needs from this worker in one round trip: ``requests`` is
        ``[(shuffle_id, map_index, reduce_index[, min_epoch]), ...]`` and
        the reply carries one ``("ok", bucket)`` or ``("missing", None)``
        per request, in order — partial failure stays per map output, so
        the caller raises :class:`FetchFailed` for exactly the absent
        blocks (§3.3 recovery unchanged).  A block held at an older epoch
        than a request's ``min_epoch`` is served as missing: a re-run stage
        must never be handed a stale co-named bucket.

        ``parts`` splits a fetch group's requests by member: the reply is
        then one pickled part per member, which that member decodes in its
        own slot thread when it runs.  Decoding every member's buckets in
        the fetching thread left each sibling freeing objects another
        thread had allocated, later: +4–6 MB peak RSS on the e2e
        ``wordcount_durable`` workload (2-vCPU VM, Python 3.11)."""
        if self.is_dead:
            raise WorkerLost(self.worker_id, "fetch from dead worker")
        replies = self.blocks.get_buckets(job_id, requests)
        if not parts:
            return replies
        packed, pos = [], 0
        for n in parts:
            packed.append(dumps_data(replies[pos : pos + n], "fetch_buckets reply"))
            pos += n
        return packed

    def has_map_output(
        self, job_id: int, shuffle_id: int, map_index: int, min_epoch: int = 0
    ) -> bool:
        return not self.is_dead and self.blocks.has_map_output(
            job_id, shuffle_id, map_index, min_epoch
        )

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def _run_task(
        self, desc: TaskDescriptor, share: Optional[_SharedFetch] = None
    ) -> None:
        if self.is_dead:
            return
        fault = chaos_hit(
            SITE_WORKER_TASK, target=self.worker_id, method=str(desc.task_id)
        )
        if fault is not None:
            if fault.kind == KIND_WORKER_KILL:
                # Crash at task entry: the driver learns via missed
                # heartbeats / refused calls, exactly like a real loss.
                self.kill()
                return
            # KIND_WORKER_HANG: stall, then proceed — long enough to look
            # stuck (heartbeats keep flowing; only the task is late).
            time.sleep(fault.param)
            if self.is_dead:
                return
        started = self.clock.now()
        tel = self.telemetry_metrics
        if tel is not None:
            with self._lock:
                accepted = self._accepted_at.pop(str(desc.task_id), None)
            if accepted is not None:
                tel.histogram(HIST_TELEMETRY_QUEUE_DELAY).record(
                    max(started - accepted, 0.0)
                )
        # Parent the compute span to the stage context carried by the
        # descriptor, so worker-side work lands in the batch's trace tree.
        span = self.tracer.start_span(
            SPAN_TASK_COMPUTE,
            parent=desc.trace_ctx,
            actor=self.worker_id,
            start_s=started,
            task=str(desc.task_id),
            stage=desc.task_id.stage_index,
            partition=desc.task_id.partition,
        )
        try:
            with self.tracer.activate(span.context):
                report = self._execute(desc, share)
        except (FetchFailed, WorkerLost) as err:
            fetch = (
                err
                if isinstance(err, FetchFailed)
                else FetchFailed(-1, -1, err.worker_id)
            )
            report = TaskReport(
                task_id=desc.task_id,
                worker_id=self.worker_id,
                succeeded=False,
                error=fetch,
            )
        except Exception as err:  # noqa: BLE001 - user code may raise anything
            report = TaskReport(
                task_id=desc.task_id,
                worker_id=self.worker_id,
                succeeded=False,
                error=err,
            )
        report.compute_time_s = self.clock.now() - started
        self.metrics.counter(TIME_COMPUTE).add(report.compute_time_s)
        if tel is not None:
            tel.counter(COUNT_TELEMETRY_TASKS).add(1)
            tel.histogram(
                f"{TELEMETRY_STAGE_LATENCY_PREFIX}.{desc.task_id.stage_index}"
            ).record(report.compute_time_s)
            if report.output_sizes:
                tel.counter(COUNT_TELEMETRY_RECORDS).add(
                    sum(report.output_sizes.values())
                )
            elif isinstance(report.result, (list, tuple, dict)):
                tel.counter(COUNT_TELEMETRY_RECORDS).add(len(report.result))
        if not report.succeeded:
            span.annotate(error=repr(report.error))
        # Same window as the TIME_COMPUTE counter add (exact agreement).
        span.end(started + report.compute_time_s)
        report.trace_ctx = span.context
        if self.is_dead:
            return  # crashed mid-task: effects are discarded
        report_start = self.clock.now()
        self._send_report(report)
        if self.tracer.enabled:
            self.tracer.record_span(
                SPAN_TASK_REPORT,
                report_start,
                self.clock.now(),
                parent=span,
                actor=self.worker_id,
                task=str(desc.task_id),
            )

    def _send_report(self, report: TaskReport) -> None:
        """Deliver a completion report to the driver.

        Over the tcp transport the report is pickled onto the wire; a
        result or error user code produced may not survive that.  Rather
        than hanging the job (the driver would wait forever), resend a
        stripped report whose error names the offending payload.

        The report is *posted* (:meth:`BaseTransport.post`): the slot
        moves on and the report leaves in the transport's next frame to
        the driver.  If that frame is never acknowledged (a dropped frame,
        a reset) the report is retried a few times with blocking calls:
        losing a report silently wedges the stage until the driver's
        deadline fires, so the worker spends a little effort before
        giving up.  Reports are idempotent driver-side, so a duplicate
        from a retry racing a slow first delivery is safe.

        When every quick attempt fails the driver itself may be down (the
        crash-restart window, repro.ha): the report is *parked* and
        retried with jittered backoff for a bounded window rather than
        discarded, so a driver that restarts quickly receives completed
        work instead of re-running it.  The window is short — a worker
        must never wedge the thread delivering its reports (or its
        transport's ``close()``) behind a driver that stays dead; past
        it, lineage re-execution covers the loss exactly as before."""
        if self.is_dead:
            return
        try:
            self._post_report(report)
        except SerializationError as err:
            self._post_report(
                TaskReport(
                    task_id=report.task_id,
                    worker_id=self.worker_id,
                    succeeded=False,
                    error=err,
                    compute_time_s=report.compute_time_s,
                    trace_ctx=report.trace_ctx,
                )
            )  # the stripped report is picklable

    def _post_report(self, report: TaskReport) -> None:
        self.transport.post(
            DRIVER_ID,
            "task_finished",
            report,
            on_undelivered=lambda _err: self._redeliver_report(report),
        )

    def _redeliver_report(self, report: TaskReport) -> None:
        """The posted report was never acknowledged.  The post was the
        first of three quick attempts; make the other two as blocking
        calls on the same backoff, then park."""
        for attempt in range(3):
            if self.is_dead:
                return
            if attempt and self.transport.try_call(DRIVER_ID, "task_finished", report):
                return
            time.sleep(0.02 * (attempt + 1))
        self._park_report(report)

    def _park_report(self, report: TaskReport) -> None:
        """Bounded jittered redelivery of a report the driver never took."""
        self.metrics.counter(COUNT_HA_PARKED_REPORTS).add(1)
        deadline = time.monotonic() + 1.5
        delay = 0.05
        while time.monotonic() < deadline:
            if self.is_dead:
                return
            # Jitter in [0.5, 1.5)x: parked workers must not stampede a
            # freshly rebound driver listener in lockstep.
            time.sleep(delay * (0.5 + random.random()))
            if self.transport.try_call(DRIVER_ID, "task_finished", report):
                return
            delay = min(delay * 2, 0.4)

    def _execute(
        self, desc: TaskDescriptor, share: Optional[_SharedFetch] = None
    ) -> TaskReport:
        """Run one task attempt, split into the backend-facing protocol:
        input resolution in this process (a shuffle fetch, or a source
        task's read spec), the pure compute core (delegated to the
        executor backend), then transport-side output publication and
        reporting."""
        stage = desc.stage
        job_id = desc.task_id.job_id
        partition = desc.task_id.partition

        fetched = records = None
        if share is not None:
            fetched = self._shared_inputs(desc, share)
        elif desc.read is not None:
            records = self.sources.read(desc.read)
        else:
            fetched = self._fetch_inputs(desc)

        request = ComputeRequest(
            job_id=job_id,
            stage=stage,
            partition=partition,
            fetched=fetched,
            input=records,
            compute_delay_s=self.compute_delay_per_task_s,
            trace_ctx=self.tracer.current() if self.tracer.enabled else None,
        )
        straggle = chaos_hit(
            SITE_EXEC_COMPUTE, target=self.worker_id, method=str(desc.task_id)
        )
        if straggle is not None:
            # KIND_EXEC_STRAGGLE: this one attempt computes slowly —
            # slow enough to trip the speculation monitor (§3.5), which
            # should clone the task elsewhere and take the fast copy.
            time.sleep(straggle.param)
        exec_start = self.clock.now()
        outcome = self._backend.run_compute(request)
        if self.tracer.enabled and outcome.backend == "process":
            # The context crossed the process boundary inside the payload
            # and came back with the outcome (Envelope-style): parent the
            # exec span to it so child-side work lands in the batch tree.
            self.tracer.record_span(
                SPAN_TASK_EXEC,
                exec_start,
                self.clock.now(),
                parent=outcome.trace_ctx,
                actor=self.worker_id,
                task=str(desc.task_id),
                backend=outcome.backend,
                child_compute_s=outcome.elapsed_s,
            )

        if outcome.kind == "map":
            assert stage.output_shuffle is not None
            spec = stage.output_shuffle
            buckets = outcome.buckets or {}
            if self.is_dead:
                raise WorkerLost(self.worker_id, "died mid-task")
            # The block carries its producing attempt as an epoch, so a
            # consumer requiring a newer re-run can never be served this
            # one by name collision.
            epoch = desc.task_id.attempt
            self.blocks.put_map_output(
                job_id, spec.shuffle_id, partition, buckets, epoch=epoch
            )
            self._notify_downstream(desc, spec.shuffle_id, partition, epoch)
            sizes = {r: len(v) for r, v in buckets.items()}
            return TaskReport(
                task_id=desc.task_id,
                worker_id=self.worker_id,
                succeeded=True,
                output_sizes=sizes,
            )

        return TaskReport(
            task_id=desc.task_id,
            worker_id=self.worker_id,
            succeeded=True,
            result=outcome.result,
        )

    def _notify_downstream(
        self, desc: TaskDescriptor, shuffle_id: int, map_index: int, epoch: int = 0
    ) -> None:
        """Push metadata directly to downstream workers (pre-scheduling),
        one message per distinct worker."""
        if not desc.downstream:
            return
        job_id = desc.task_id.job_id
        for target in sorted(set(desc.downstream.values())):
            if target == self.worker_id:
                self.notify_output(
                    job_id, shuffle_id, map_index, self.worker_id, epoch
                )
            else:
                self.transport.post(
                    target,
                    "notify_output",
                    job_id,
                    shuffle_id,
                    map_index,
                    self.worker_id,
                    epoch,
                    # §3.3: forward send failures to the centralized
                    # scheduler, the single source workers rely on.
                    on_undelivered=lambda _err, target=target: self.transport.try_call(
                        DRIVER_ID,
                        "notify_delivery_failed",
                        job_id,
                        shuffle_id,
                        map_index,
                        self.worker_id,
                        target,
                    ),
                )

    def _fetch_inputs(self, desc: TaskDescriptor) -> List[List[List]]:
        """Pull every input bucket this task needs, alone.

        Returns ``fetched[input_shuffle_index] = [bucket, ...]`` in map
        order.  Each needed ``(shuffle_id, map_index)`` is looked up once
        even when several input shuffles reference it, locally held blocks
        are read from the own :class:`BlockStore`, and every remote peer
        is asked for *all* its buckets in one ``fetch_buckets`` round
        trip, one peer after another.  This is how a barrier (PER_BATCH)
        task, a re-placed task and a lone reducer fetch; the reduce tasks
        that one notification makes ready together share one round trip
        per (worker, peer, job) instead (:meth:`_fetch_for_group`).
        Buckets only: code reaches a worker in stage blobs, never here.

        Location resolution order for remote blocks: explicit
        ``map_locations`` from the driver (barrier mode) then locations
        learned from notifications (pre-scheduled mode)."""
        fetch_start = self.clock.now()
        plan = self._plan_fetch(desc, self._learned_locations(desc.task_id.job_id))
        (remote,) = self._pull(desc.task_id.job_id, [plan])
        return self._assemble(desc, plan, remote, fetch_start)

    def _shared_inputs(
        self, desc: TaskDescriptor, share: _SharedFetch
    ) -> List[List[List]]:
        """A fetch-group member's input: the first member fetches for the
        whole group; each member then assembles its own buckets from the
        replies it was handed (or fetches alone when it has none)."""
        fetch_start = self.clock.now()
        if desc is share.members[0]:
            self._fetch_for_group(share)
        handed = share.handed.pop(desc.task_id, None)
        if handed is None:
            return self._fetch_inputs(desc)
        plan, remote = handed
        return self._assemble(desc, plan, remote, fetch_start)

    def _fetch_for_group(self, share: _SharedFetch) -> None:
        """Fetch for every member of a group, one ``fetch_buckets`` per
        peer, then hand each sibling its plan and replies and submit it,
        so no slot sits blocked on another task's fetch.  A member whose
        plan cannot be made (an unknown location) fetches — and fails —
        alone."""
        members = share.members
        learned = self._learned_locations(members[0].task_id.job_id)
        plans: Dict[TaskId, _FetchPlan] = {}
        for desc in members:
            try:
                plans[desc.task_id] = self._plan_fetch(desc, learned)
            except FetchFailed:
                pass
        try:
            replies = self._pull(members[0].task_id.job_id, list(plans.values()))
            for (task_id, plan), remote in zip(plans.items(), replies):
                share.handed[task_id] = (plan, remote)
        finally:
            # Even when the pull raised: a sibling with no replies fetches
            # alone and reports its own outcome.
            for desc in members[1:]:
                self._backend.submit(self._run_task, desc, share)

    def _learned_locations(self, job_id: int) -> Dict[DepKey, Tuple[str, int]]:
        with self._lock:
            return dict(self._dep_locations.get(job_id, ()))

    def _plan_fetch(
        self, desc: TaskDescriptor, learned_locations: Dict[DepKey, Tuple[str, int]]
    ) -> _FetchPlan:
        """Where each bucket of ``desc`` comes from: the own store or one
        peer, with the minimum epoch an acceptable block must carry.
        Raises :class:`FetchFailed` for a block no one is known to hold."""
        job_id = desc.task_id.job_id
        # Dedupe: needed (shuffle_id, map_index) pairs in first-seen order.
        per_spec: List[List[DepKey]] = []
        order: List[DepKey] = []
        seen: set = set()
        for spec in desc.stage.input_shuffles:
            deps = [
                (spec.shuffle_id, map_index)
                for map_index in spec.map_indices_for_reducer(desc.task_id.partition)
            ]
            per_spec.append(deps)
            for dep in deps:
                if dep not in seen:
                    seen.add(dep)
                    order.append(dep)
        # Partition into local reads and per-peer remote batches.  A
        # co-located block is served from the own store even when the
        # location tables are stale or silent about it — provided it was
        # written at (or after) the epoch the block's producer announced:
        # an older co-named block belongs to a superseded attempt and is
        # treated as absent (fetched from the authoritative holder
        # instead, or reported FetchFailed if that holder lost it too).
        local: List[DepKey] = []
        by_peer: Dict[str, List[DepKey]] = {}
        min_epochs: Dict[DepKey, int] = {}
        for shuffle_id, map_index in order:
            dep = (shuffle_id, map_index)
            location = desc.map_locations.get(dep)
            min_epoch = desc.map_epochs.get(dep, 0)
            learned = learned_locations.get(dep)
            if learned is not None:
                learned_loc, learned_epoch = learned
                min_epoch = max(min_epoch, learned_epoch)
                if location is None:
                    location = learned_loc
            min_epochs[dep] = min_epoch
            if self.blocks.has_map_output(job_id, shuffle_id, map_index, min_epoch):
                local.append(dep)
                continue
            if location is None:
                raise FetchFailed(shuffle_id, map_index, "<unknown>")
            if location == self.worker_id:
                local.append(dep)
            else:
                by_peer.setdefault(location, []).append(dep)
        return _FetchPlan(desc.task_id.partition, per_spec, local, by_peer, min_epochs)

    def _pull(self, job_id: int, plans: Sequence[_FetchPlan]) -> List[_Remote]:
        """One ``fetch_buckets`` round trip per peer for all of ``plans``.
        Each request names the minimum epoch an acceptable block must
        carry, so the peer reports a stale co-named block as missing.

        Returns, per plan, ``peer -> {dep: bucket}``, or ``peer ->
        FetchFailed`` naming that plan's own first lost map output on the
        peer: a lost peer or a ``missing`` entry fails exactly the plans
        it touches, and a failed plan asks no further peer."""
        members: Dict[str, List[int]] = {}
        for i, plan in enumerate(plans):
            for peer in plan.by_peer:
                members.setdefault(peer, []).append(i)
        out: List[_Remote] = [{} for _ in plans]
        failed: set = set()
        for peer, indexes in members.items():
            indexes = [i for i in indexes if i not in failed]
            if not indexes:
                continue
            requests = [
                (*dep, plans[i].partition, plans[i].min_epochs[dep])
                for i in indexes
                for dep in plans[i].by_peer[peer]
            ]
            parts = (
                [len(plans[i].by_peer[peer]) for i in indexes]
                if len(indexes) > 1 and self.transport.serializes
                else ()
            )
            self.metrics.counter(COUNT_NET_FETCH_BATCHES).add(1)
            self.metrics.histogram(HIST_NET_BUCKETS_PER_FETCH).record(len(requests))
            try:
                replies = self.transport.call(
                    peer, "fetch_buckets", job_id, requests, parts
                )
            except WorkerLost as err:
                for i in indexes:
                    shuffle_id, map_index = plans[i].by_peer[peer][0]
                    out[i][peer] = FetchFailed(shuffle_id, map_index, err.worker_id)
                failed.update(indexes)
                continue
            if parts:
                for i, part in zip(indexes, replies):
                    out[i][peer] = part
                continue
            pos = 0
            for i in indexes:
                deps = plans[i].by_peer[peer]
                got = _received(peer, deps, replies[pos : pos + len(deps)])
                pos += len(deps)
                out[i][peer] = got
                if isinstance(got, FetchFailed):
                    failed.add(i)
        return out

    def _assemble(
        self,
        desc: TaskDescriptor,
        plan: _FetchPlan,
        remote: _Remote,
        fetch_start: float,
    ) -> List[List[List]]:
        """Read the local buckets, take the remote ones from ``remote``
        (raising its failure, if a peer's part failed), and reassemble in
        input-shuffle/map order."""
        job_id = desc.task_id.job_id
        buckets: Dict[DepKey, List] = {}
        for shuffle_id, map_index in plan.local:
            buckets[(shuffle_id, map_index)] = self.blocks.get_bucket(
                job_id,
                shuffle_id,
                map_index,
                plan.partition,
                plan.min_epochs[(shuffle_id, map_index)],
            )
        for peer, got in remote.items():
            if isinstance(got, bytes):
                got = _received(peer, plan.by_peer[peer], pickle.loads(got))
            if isinstance(got, FetchFailed):
                raise got
            buckets.update(got)
        # A bucket consumed by more than one input shuffle is copied after
        # its first use: merge functions may consume or mutate the streams
        # they get.
        fetched: List[List[List]] = []
        used: set = set()
        for deps in plan.per_spec:
            streams: List[List] = []
            for dep in deps:
                bucket = buckets[dep]
                streams.append(list(bucket) if dep in used else bucket)
                used.add(dep)
            fetched.append(streams)
        if self.tracer.enabled:
            # Parent defaults to the active task.compute context.
            self.tracer.record_span(
                SPAN_TASK_FETCH,
                fetch_start,
                self.clock.now(),
                actor=self.worker_id,
                task=str(desc.task_id),
                buckets=len(buckets),
                local=len(plan.local),
                peers=len(plan.by_peer),
            )
        return fetched
