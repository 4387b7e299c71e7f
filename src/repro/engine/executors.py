"""Pluggable executor backends: how a worker actually runs its slots.

The worker's control plane (local scheduler, block store, notifications,
reports) is backend-agnostic — Naiad-style, the scheduling logic never
cares where compute happens.  A backend supplies exactly two operations:

* :meth:`ExecutorBackend.submit` — run a task *orchestration* callable on
  one of the worker's slots (the callable does fetching, block-store
  writes, downstream notification, and reporting, so it must stay in the
  worker's process);
* :meth:`ExecutorBackend.run_compute` — run the pure compute core of one
  task (input/merge → pipeline → bucketing/action) and return a
  :class:`ComputeOutcome`.

Backends (selected via ``EngineConf.executor.backend``):

``inline``
    ``submit`` calls synchronously in the caller's thread.  Fully
    deterministic; used by tests and sim calibration.
``thread``
    A slot pool of threads per worker (historical default).  Cheap, but
    CPU-bound user code serializes on the GIL.
``process``
    Slot threads drive a spawn-safe ``multiprocessing`` pool: the stage
    closure crosses the boundary as pickled bytes
    (:mod:`repro.dag.serde`), is cached child-side by token so a group of
    tasks ships each stage once (the same amortization group scheduling
    gives launch RPCs, §3.1), and results return as pickled outcomes the
    worker turns into ``TaskReport``s.  The stage is code only; a source
    task's records ride in the per-task payload.  Trace contexts ride the
    payload both ways, Envelope-style, so spans survive the process
    boundary.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
import traceback
from dataclasses import dataclass
from queue import SimpleQueue
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.config import EngineConf
from repro.common.errors import PlanError, SerializationError
from repro.dag.plan import StageSpec
from repro.dag.serde import dumps_closure, loads_closure
from repro.obs.trace import SpanContext

__all__ = [
    "ComputeOutcome",
    "ComputeRequest",
    "ExecutorBackend",
    "InlineExecutor",
    "ProcessExecutor",
    "ThreadExecutor",
    "create_backend",
    "run_stage_compute",
]

# Child-side stage cache bound; evicted wholesale (stages are small).
_CHILD_CACHE_LIMIT = 64
# Parent-side serialized-stage cache bound (entries hold plan refs).
_PARENT_CACHE_LIMIT = 64


@dataclass
class ComputeRequest:
    """The pure-compute slice of one task attempt, backend-portable."""

    job_id: int
    stage: StageSpec
    partition: int
    # ``fetched[input_shuffle_index] = [bucket, ...]``; None for source
    # stages (inputs were pulled by the worker — transport stays parent-side).
    fetched: Optional[List[List[List]]]
    # Source stages: the partition's records, read by the worker from the
    # task's read spec in its own process before the request is built.
    input: Optional[List[Any]] = None
    compute_delay_s: float = 0.0
    # Active span context at submission; carried across the boundary and
    # echoed back so the worker can parent an exec span under it.
    trace_ctx: Optional[SpanContext] = None


@dataclass
class ComputeOutcome:
    """What came back: either shuffle buckets or an action result."""

    kind: str  # "map" | "result"
    buckets: Optional[Dict[int, List]] = None
    result: Any = None
    elapsed_s: float = 0.0
    trace_ctx: Optional[SpanContext] = None
    backend: str = "inline"


def run_stage_compute(
    stage: StageSpec,
    partition: int,
    fetched: Optional[List[List[List]]],
    input: Optional[List[Any]] = None,
    compute_delay_s: float = 0.0,
) -> Tuple[str, Optional[Dict[int, List]], Any]:
    """The backend-independent compute core of one task: evaluate the
    stage's closures over one partition.  Runs in the worker's process
    for inline/thread backends and inside a pool child for process.  A
    source stage reads ``input`` (the worker resolved its read spec; the
    stage's ``source_fn`` is never called here), any other stage
    ``fetched``."""
    if stage.is_source:
        if input is None:
            raise PlanError(
                f"source task for partition {partition} of stage "
                f"{stage.stage_index} was launched without a read spec"
            )
        # An iterator, never the list itself: the output operations over
        # one batch may share that list.
        records = iter(input)
    else:
        assert stage.input_merge is not None
        records = stage.input_merge(partition, fetched)
    records = stage.pipeline(partition, records)
    if compute_delay_s > 0:
        time.sleep(compute_delay_s)
    if stage.output_shuffle is not None:
        assert stage.map_output_fn is not None
        return ("map", stage.map_output_fn(partition, records), None)
    assert stage.action_fn is not None
    return ("result", None, stage.action_fn(partition, records))


class ExecutorBackend:
    """Interface between the worker's control plane and its slots."""

    name: str = "abstract"

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule one task-orchestration callable on a slot."""
        raise NotImplementedError

    def run_compute(self, request: ComputeRequest) -> ComputeOutcome:
        """Execute the pure compute core of one task."""
        raise NotImplementedError

    def shutdown(self, wait: bool = True) -> None:
        """Release every slot resource (threads, child processes)."""

    @property
    def slot_thread_names(self) -> List[str]:
        """Names of live slot threads (empty for the inline backend)."""
        return []


class InlineExecutor(ExecutorBackend):
    """Deterministic backend: tasks run synchronously in the submitting
    thread, so a single-threaded test observes one fixed interleaving."""

    name = "inline"

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        fn(*args)

    def run_compute(self, request: ComputeRequest) -> ComputeOutcome:
        return _local_outcome(request, self.name)


def _local_outcome(request: ComputeRequest, backend: str) -> ComputeOutcome:
    start = time.perf_counter()
    kind, buckets, result = run_stage_compute(
        request.stage,
        request.partition,
        request.fetched,
        request.input,
        request.compute_delay_s,
    )
    return ComputeOutcome(
        kind=kind,
        buckets=buckets,
        result=result,
        elapsed_s=time.perf_counter() - start,
        trace_ctx=request.trace_ctx,
        backend=backend,
    )


class _SlotPool:
    """A fixed pool of daemon worker threads with controllable shutdown.

    Thread names keep the historical ``{worker_id}-slot`` prefix — tests
    and examples identify the executing worker through it."""

    def __init__(self, worker_id: str, slots: int):
        self._queue: SimpleQueue = SimpleQueue()
        self._threads = [
            threading.Thread(
                target=self._loop, name=f"{worker_id}-slot-{i}", daemon=True
            )
            for i in range(slots)
        ]
        for t in self._threads:
            t.start()

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        self._queue.put((fn, args))

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, args = item
            try:
                fn(*args)
            except Exception:  # noqa: BLE001 - orchestration callables
                # already report their own failures; never kill the slot.
                pass

    def shutdown(self, wait: bool = True, timeout_s: float = 1.0) -> None:
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for t in self._threads:
                t.join(timeout=timeout_s)

    @property
    def thread_names(self) -> List[str]:
        return [t.name for t in self._threads if t.is_alive()]


class ThreadExecutor(ExecutorBackend):
    """Thread-pool backend (the historical default): compute runs in the
    slot thread itself, sharing the GIL with every other slot."""

    name = "thread"

    def __init__(self, worker_id: str, slots: int):
        self._pool = _SlotPool(worker_id, slots)

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        self._pool.submit(fn, *args)

    def run_compute(self, request: ComputeRequest) -> ComputeOutcome:
        return _local_outcome(request, self.name)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    @property
    def slot_thread_names(self) -> List[str]:
        return self._pool.thread_names


# ----------------------------------------------------------------------
# Process backend: child-side entry point and cache.
# ----------------------------------------------------------------------

# token -> deserialized StageSpec, per pool child.
_child_stage_cache: Dict[str, StageSpec] = {}


def _child_run(token: str, stage_blob: Optional[bytes], task_blob: bytes) -> bytes:
    """Runs inside a pool child: resolve the stage (from cache or blob),
    execute the compute core, pickle the outcome back.

    Every failure mode is folded into the returned bytes so the parent
    never sees a raw pool-level PicklingError."""
    stage = _child_stage_cache.get(token)
    if stage is None:
        if stage_blob is None:
            # A child that has not seen this stage yet (pool siblings race
            # on first send); the parent retries with the blob attached.
            return pickle.dumps(("stage_miss",))
        if len(_child_stage_cache) >= _CHILD_CACHE_LIMIT:
            _child_stage_cache.clear()
        stage = loads_closure(stage_blob)
        _child_stage_cache[token] = stage
    partition, fetched, input, compute_delay_s, trace_ctx = pickle.loads(task_blob)
    start = time.perf_counter()
    try:
        kind, buckets, result = run_stage_compute(
            stage, partition, fetched, input, compute_delay_s
        )
        elapsed = time.perf_counter() - start
        try:
            return pickle.dumps(("ok", kind, buckets, result, elapsed, trace_ctx))
        except Exception as err:  # noqa: BLE001 - unpicklable records
            failure = SerializationError(
                f"task produced records that cannot return from the process "
                f"executor: {err}"
            )
            return pickle.dumps(("error", failure, "", elapsed, trace_ctx))
    except Exception as err:  # noqa: BLE001 - user code may raise anything
        elapsed = time.perf_counter() - start
        tb = traceback.format_exc()
        try:
            return pickle.dumps(("error", err, tb, elapsed, trace_ctx))
        except Exception:  # noqa: BLE001 - exception itself unpicklable
            substitute = RuntimeError(f"{type(err).__name__}: {err}")
            return pickle.dumps(("error", substitute, tb, elapsed, trace_ctx))


@dataclass
class _StageEntry:
    stage: StageSpec  # strong ref keeps id(stage) stable while cached
    token: str
    blob: bytes
    shipped: bool = False


class ProcessExecutor(ExecutorBackend):
    """Multi-core backend: slot threads drive a spawn-safe process pool.

    The expensive part of IPC — serializing the stage closure — is paid
    once per stage, not once per task: the parent caches the pickled
    stage (code only) under a token, children cache the deserialized
    stage, and task payloads after the first carry only the token and
    the task's input (with a miss-retry for pool siblings that have not
    seen it).  Every batch of a stream shares its group's stage objects
    (and, over tcp, the worker's one decoded plan), so a stream
    serializes each stage at most once per group."""

    name = "process"

    def __init__(self, worker_id: str, slots: int):
        self.worker_id = worker_id
        self._slots = slots
        self._slot_pool = _SlotPool(worker_id, slots)
        self._pool: Optional[Any] = None
        self._pool_lock = threading.Lock()
        self._stages: Dict[int, _StageEntry] = {}
        self._stage_lock = threading.Lock()
        self._token_seq = 0
        self._closed = False

    def submit(self, fn: Callable[..., None], *args: Any) -> None:
        self._slot_pool.submit(fn, *args)

    # -- pool management ------------------------------------------------
    def _ensure_pool(self) -> Any:
        with self._pool_lock:
            if self._closed:
                raise RuntimeError(f"{self.worker_id}: executor is shut down")
            if self._pool is None:
                # spawn: fork is unsafe with the engine's own threads
                # alive in the parent.
                ctx = multiprocessing.get_context("spawn")
                self._pool = ctx.Pool(processes=self._slots)
            return self._pool

    def _stage_entry(self, stage: StageSpec) -> _StageEntry:
        with self._stage_lock:
            entry = self._stages.get(id(stage))
            if entry is not None and entry.stage is stage:
                return entry
            if len(self._stages) >= _PARENT_CACHE_LIMIT:
                self._stages.clear()
            blob = dumps_closure(
                stage.code_only(), context=f"stage {stage.stage_index} payload"
            )
            self._token_seq += 1
            entry = _StageEntry(stage, f"{self.worker_id}:{self._token_seq}", blob)
            self._stages[id(stage)] = entry
            return entry

    # -- compute --------------------------------------------------------
    def run_compute(self, request: ComputeRequest) -> ComputeOutcome:
        entry = self._stage_entry(request.stage)
        task_blob = dumps_closure(
            (request.partition, request.fetched, request.input,
             request.compute_delay_s, request.trace_ctx),
            context=f"task inputs for partition {request.partition}",
        )
        pool = self._ensure_pool()
        stage_blob = None if entry.shipped else entry.blob
        while True:
            raw = pool.apply(_child_run, (entry.token, stage_blob, task_blob))
            response = pickle.loads(raw)
            if response[0] == "stage_miss":
                stage_blob = entry.blob  # retry, blob attached
                continue
            break
        entry.shipped = True
        if response[0] == "error":
            _, err, remote_tb, elapsed, _ctx = response
            if remote_tb:
                err.remote_traceback = remote_tb
            raise err
        _, kind, buckets, result, elapsed, echoed_ctx = response
        return ComputeOutcome(
            kind=kind,
            buckets=buckets,
            result=result,
            elapsed_s=elapsed,
            trace_ctx=echoed_ctx,
            backend=self.name,
        )

    def shutdown(self, wait: bool = True) -> None:
        self._slot_pool.shutdown(wait=wait)
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            if wait:
                pool.join()
        with self._stage_lock:
            self._stages.clear()

    @property
    def slot_thread_names(self) -> List[str]:
        return self._slot_pool.thread_names


def create_backend(conf: EngineConf, worker_id: str) -> ExecutorBackend:
    """Build the backend ``conf.executor`` selects, sized to the worker's
    slot count."""
    backend = conf.executor.backend
    if backend == "inline":
        if conf.transport.backend == "tcp":
            # Running a task inside the RPC handler thread that delivered
            # launch_tasks over a socket deadlocks: its completion report
            # calls back into a driver still holding its scheduling lock
            # while it waits for the launch call to return (in-process the
            # re-entrant lock hides this, caller and handler share a
            # thread).  One slot thread keeps execution serialized.
            return ThreadExecutor(worker_id, 1)
        return InlineExecutor()
    if backend == "thread":
        return ThreadExecutor(worker_id, conf.slots_per_worker)
    if backend == "process":
        return ProcessExecutor(worker_id, conf.slots_per_worker)
    raise ValueError(f"unknown executor backend {backend!r}")  # pragma: no cover
