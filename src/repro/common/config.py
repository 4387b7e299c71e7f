"""Engine configuration.

One dataclass carries every knob; subsystem constructors take the whole
config so benchmarks can sweep a single object.  Validation happens once,
eagerly, in ``validate`` (called by the cluster constructors).
"""

from __future__ import annotations

import os
from dataclasses import MISSING as _MISSING
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Any, Dict, Optional

from repro.common.errors import ConfigError


class SchedulingMode(Enum):
    """Control-plane variants compared in the paper.

    * ``PER_BATCH`` — the Spark baseline: each micro-batch is scheduled
      independently, with a driver barrier between stages (Figure 1).
    * ``PRE_SCHEDULED`` — pre-scheduling only (group size 1): the
      intra-batch barrier is removed but batches are still scheduled one
      at a time (the "Only Pre-Scheduling" line of Figure 5(b)).
    * ``DRIZZLE`` — group scheduling + pre-scheduling (§3.1, §3.2).

    The §3.6 pipelined-scheduling alternative is modeled analytically by
    the simulator (:mod:`repro.sim.microbench`), not run by the engine.
    """

    PER_BATCH = "per_batch"
    PRE_SCHEDULED = "pre_scheduled"
    DRIZZLE = "drizzle"


@dataclass
class TunerConf:
    """AIMD group-size tuner settings (§3.4)."""

    enabled: bool = False
    overhead_lower_bound: float = 0.05
    overhead_upper_bound: float = 0.20
    increase_factor: float = 2.0
    min_group_size: int = 1
    max_group_size: int = 1000
    ewma_alpha: float = 0.5

    def validate(self) -> None:
        if not 0.0 <= self.overhead_lower_bound < self.overhead_upper_bound <= 1.0:
            raise ConfigError(
                "tuner bounds must satisfy 0 <= lower < upper <= 1, got "
                f"[{self.overhead_lower_bound}, {self.overhead_upper_bound}]"
            )
        if self.increase_factor <= 1.0:
            raise ConfigError("increase_factor must be > 1")
        if not 1 <= self.min_group_size <= self.max_group_size:
            raise ConfigError(
                f"need 1 <= min_group_size <= max_group_size, got "
                f"[{self.min_group_size}, {self.max_group_size}]"
            )
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ConfigError("ewma_alpha must be in (0, 1]")


@dataclass
class TracingConf:
    """End-to-end tracing (``repro.obs``).

    Off by default: when disabled every component holds the shared no-op
    recorder, so the instrumented paths cost one attribute access.  When
    enabled, the cluster wires one :class:`repro.obs.trace.TraceRecorder`
    through the driver, transport, and workers; spans are kept in memory
    (bounded by ``max_events``) and exported on demand.
    """

    enabled: bool = False
    # Upper bound on retained span events; overflow is counted, not kept.
    max_events: int = 200_000

    def validate(self) -> None:
        if self.max_events < 1:
            raise ConfigError("tracing max_events must be >= 1")


@dataclass
class SpeculationConf:
    """Speculative execution (straggler mitigation).

    Stragglers "can slow down jobs by 6-8x" (§1); the BSP substrate
    mitigates them by launching a second copy of any task that has been
    running far longer than its stage's median — first finisher wins
    (tasks are deterministic, so duplicates are harmless).
    """

    enabled: bool = False
    check_interval_s: float = 0.05
    # A task is a straggler once it runs longer than
    # max(min_runtime_s, multiplier * median completed duration).
    multiplier: float = 3.0
    min_runtime_s: float = 0.1
    # Only speculate once this fraction of the stage has finished (we need
    # a meaningful median).
    min_completed_fraction: float = 0.5

    def validate(self) -> None:
        if self.check_interval_s <= 0:
            raise ConfigError("check_interval_s must be positive")
        if self.multiplier <= 1.0:
            raise ConfigError("multiplier must be > 1")
        if self.min_runtime_s < 0:
            raise ConfigError("min_runtime_s must be >= 0")
        if not 0.0 < self.min_completed_fraction <= 1.0:
            raise ConfigError("min_completed_fraction must be in (0, 1]")


EXECUTOR_BACKENDS = ("inline", "thread", "process")


def _default_backend() -> str:
    # CI matrices force a backend for a whole pytest run via the
    # environment instead of editing every EngineConf construction.
    return os.environ.get("REPRO_EXECUTOR_BACKEND", "thread")


@dataclass
class ExecutorConf:
    """How each worker runs its task slots (see ``docs/executors.md``).

    * ``inline`` — tasks run synchronously in the submitting thread:
      deterministic scheduling, ideal for tests and sim calibration.
    * ``thread`` — a thread pool per worker (the default): cheap, shares
      the GIL, fine for I/O-bound or tiny tasks.
    * ``process`` — a spawn-safe ``multiprocessing`` pool per worker:
      task closures cross the boundary as pickled bytes
      (:mod:`repro.dag.serde`), CPU-bound user code gets true
      multi-core parallelism.
    """

    backend: str = field(default_factory=_default_backend)

    def validate(self) -> None:
        if self.backend not in EXECUTOR_BACKENDS:
            raise ConfigError(
                f"executor backend must be one of {EXECUTOR_BACKENDS}, "
                f"got {self.backend!r}"
            )


TRANSPORT_BACKENDS = ("inproc", "tcp")


def _default_transport_backend() -> str:
    # CI matrices force a transport for a whole pytest run via the
    # environment, mirroring REPRO_EXECUTOR_BACKEND.
    return os.environ.get("REPRO_TRANSPORT", "inproc")


@dataclass
class TransportConf:
    """Message-transport selection and knobs (see ``docs/networking.md``).

    * ``inproc`` — the historical in-process registry/router: a call is a
      Python method call plus counters.
    * ``tcp`` — :mod:`repro.net`: every driver↔worker and worker↔worker
      message is framed, serialized, and sent over a real loopback
      socket; the driver and workers only share a socket address.
    """

    backend: str = field(default_factory=_default_transport_backend)
    # TCP dial timeout per attempt, and bounded-backoff retry budget for
    # refused/unreachable connects (a server that has not finished
    # binding yet is transient; one that stays refused is WorkerLost).
    connect_timeout_s: float = 1.0
    max_retries: int = 2
    retry_backoff_s: float = 0.02
    # End-to-end budget for one request/response round trip; a peer that
    # accepts but never answers surfaces as WorkerLost, not a hang.
    call_timeout_s: float = 30.0

    def validate(self) -> None:
        if self.backend not in TRANSPORT_BACKENDS:
            raise ConfigError(
                f"transport backend must be one of {TRANSPORT_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.connect_timeout_s <= 0:
            raise ConfigError("connect_timeout_s must be positive")
        if self.call_timeout_s <= 0:
            raise ConfigError("call_timeout_s must be positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ConfigError("retry_backoff_s must be >= 0")


@dataclass
class TelemetryConf:
    """Cluster-wide live telemetry plane (:mod:`repro.obs.live`).

    When enabled, every worker keeps a private metrics registry and
    periodically ships *delta* snapshots of it to the driver over the
    dedicated (uncounted) ``__metrics__`` plumbing path.
    The driver aggregates the deltas into a :class:`ClusterTelemetry`
    time-series store whose ``signals()`` feed the §3.4 tuner, the
    ``obs top`` / ``obs serve`` surfaces, and the SLO watchdog.
    """

    enabled: bool = False
    # Shipping cadence of each worker's telemetry loop; a worker silent
    # for max(4 * interval_s, 0.2) seconds reads stale.
    interval_s: float = 0.05
    # SLO watchdog thresholds, both in milliseconds; None disables a
    # check.  slo_p99_ms bounds per-stage task-latency p99,
    # slo_queue_delay_p99_ms bounds the cluster queueing-delay p99.
    slo_p99_ms: Optional[float] = None
    slo_queue_delay_p99_ms: Optional[float] = None

    def validate(self) -> None:
        if self.interval_s <= 0:
            raise ConfigError("telemetry interval_s must be positive")
        for knob in ("slo_p99_ms", "slo_queue_delay_p99_ms"):
            value = getattr(self, knob)
            if value is not None and value <= 0:
                raise ConfigError(f"telemetry {knob} must be positive (or None)")


@dataclass
class MonitorConf:
    """Failure-detection (heartbeat) settings (§3.3)."""

    enable_heartbeats: bool = False
    heartbeat_interval_s: float = 0.05
    heartbeat_timeout_s: float = 0.25

    def validate(self) -> None:
        if self.heartbeat_interval_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ConfigError("heartbeat intervals must be positive")
        if self.heartbeat_timeout_s < self.heartbeat_interval_s:
            raise ConfigError("heartbeat_timeout_s must be >= heartbeat_interval_s")


# Known fault-plan profiles.  The authoritative template definitions
# live in repro.chaos.plan (which imports this tuple to stay in sync);
# validation happens here so a bad profile fails at conf time, before a
# cluster exists.
CHAOS_PROFILES = ("net", "workers", "storage", "streaming", "mixed", "elastic", "driver")


@dataclass
class ChaosConf:
    """Deterministic fault injection (``repro.chaos``).

    Disarmed by default: every injection hook is a no-op unless
    ``enabled`` is true.  When armed, the cluster derives a
    :class:`repro.chaos.plan.FaultPlan` from ``(seed, profile,
    intensity)`` and installs a process-global injector for the cluster's
    lifetime; the same seed always yields the same fault schedule.
    """

    enabled: bool = False
    seed: int = 0
    profile: str = "mixed"
    # Scales the number of scheduled fault events (1.0 ≈ 6 events).
    intensity: float = 1.0

    def validate(self) -> None:
        if self.profile not in CHAOS_PROFILES:
            raise ConfigError(
                f"chaos profile must be one of {CHAOS_PROFILES}, "
                f"got {self.profile!r}"
            )
        if self.intensity <= 0:
            raise ConfigError("chaos intensity must be positive")


@dataclass
class ElasticConf:
    """Live autoscaling at group boundaries (:mod:`repro.elastic`).

    When enabled, the streaming context attaches an
    :class:`repro.elastic.controller.ElasticController` (with a
    ``SignalScalingPolicy``) that reads each group's observation and the
    cluster's live signals at every group boundary (§3.3 — "Drizzle
    updates the list of available resources and adjusts the tasks to be
    scheduled for the next group") and may add or drain workers between
    groups.  A resize moves no state: streaming state stays in the
    driver's state stores, and the next group's reduce partition count
    follows the new worker count.
    """

    enabled: bool = False
    # Cluster-size bounds the controller may move within: the one clamp
    # on every policy's recommendation.
    min_workers: int = 1
    max_workers: int = 8
    # Group boundaries to hold after a resize before the next decision
    # may fire (lets signals reflect the new layout before reacting).
    cooldown_groups: int = 1
    # Reduce partitions per placement worker for
    # StreamingContext.shard_partitioner: the next group's reduce uses
    # len(placement workers) * shards_per_worker hash partitions.
    shards_per_worker: int = 4

    def validate(self) -> None:
        if self.min_workers < 1:
            raise ConfigError("elastic min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ConfigError("elastic max_workers must be >= min_workers")
        if self.cooldown_groups < 0:
            raise ConfigError("elastic cooldown_groups must be >= 0")
        if self.shards_per_worker < 1:
            raise ConfigError("elastic shards_per_worker must be >= 1")


@dataclass
class HaConf:
    """Driver fault tolerance (:mod:`repro.ha`).

    When enabled, the driver journals what recovery reads — session
    epochs, membership, group commits (the paper's natural commit points,
    §3.3) and streaming checkpoints — to an append-only, CRC-framed
    write-ahead log, each record fsynced before its append returns.  A
    crashed driver restarts via :meth:`LocalCluster.recover`, which
    replays snapshot + tail and resumes from the last committed group;
    the session epoch stamped into worker-bound messages fences off a
    zombie driver that lost the restart race.
    """

    enabled: bool = False
    # Directory holding wal.log + snapshot.bin; None lets the cluster
    # create a per-run temporary directory (useful for tests, useless for
    # an actual crash-restart — production runs should pin this).
    wal_dir: Optional[str] = None


@dataclass
class EngineConf:
    """Configuration for the local BSP engine and the simulator."""

    num_workers: int = 4
    slots_per_worker: int = 4
    scheduling_mode: SchedulingMode = SchedulingMode.DRIZZLE
    group_size: int = 10
    # Checkpoint every N micro-batches; group boundaries are the natural
    # choice (§3.3), so this defaults to 0 meaning "at group boundaries".
    checkpoint_interval_batches: int = 0
    # Map-side partial aggregation (§3.5) for reduce_by_key.
    map_side_combine: bool = True
    tuner: TunerConf = field(default_factory=TunerConf)
    speculation: SpeculationConf = field(default_factory=SpeculationConf)
    tracing: TracingConf = field(default_factory=TracingConf)
    executor: ExecutorConf = field(default_factory=ExecutorConf)
    transport: TransportConf = field(default_factory=TransportConf)
    monitor: MonitorConf = field(default_factory=MonitorConf)
    chaos: ChaosConf = field(default_factory=ChaosConf)
    telemetry: TelemetryConf = field(default_factory=TelemetryConf)
    elastic: ElasticConf = field(default_factory=ElasticConf)
    ha: HaConf = field(default_factory=HaConf)
    # Deadline for one stage (and for wait_job when no explicit timeout is
    # given): a stalled stage raises a descriptive StageTimeout naming the
    # pending tasks and their workers instead of blocking forever.  None
    # keeps the historical wait-forever behaviour.
    stage_timeout_s: Optional[float] = None
    # Per-task recovery retry budget: once a task has been re-attempted
    # this many times the job fails with RecoveryBudgetExceeded carrying
    # the fault history, instead of resubmitting forever.
    max_task_retries: int = 8
    # Deterministic seed used by hash partitioners and workload generators.
    seed: int = 0

    def validate(self) -> None:
        if self.num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if self.slots_per_worker < 1:
            raise ConfigError("slots_per_worker must be >= 1")
        if self.group_size < 1:
            raise ConfigError("group_size must be >= 1")
        if self.checkpoint_interval_batches < 0:
            raise ConfigError("checkpoint_interval_batches must be >= 0")
        if self.stage_timeout_s is not None and self.stage_timeout_s <= 0:
            raise ConfigError("stage_timeout_s must be positive (or None)")
        if self.max_task_retries < 1:
            raise ConfigError("max_task_retries must be >= 1")
        self.tuner.validate()
        self.speculation.validate()
        self.tracing.validate()
        self.executor.validate()
        self.transport.validate()
        self.monitor.validate()
        self.chaos.validate()
        self.telemetry.validate()
        self.elastic.validate()
        if (
            self.scheduling_mode is SchedulingMode.PER_BATCH
            and self.group_size != 1
            and not self.tuner.enabled
        ):
            # Per-batch mode is definitionally group size 1; normalize so
            # metrics comparisons are honest.
            self.group_size = 1

    @property
    def total_slots(self) -> int:
        return self.num_workers * self.slots_per_worker

    def effective_checkpoint_interval(self) -> int:
        """Micro-batches between checkpoints (group boundary by default)."""
        if self.checkpoint_interval_batches > 0:
            return self.checkpoint_interval_batches
        return self.group_size

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (nested sub-confs included); the inverse of
        :meth:`from_dict`, so bench sweeps and CI matrices can declare
        configurations as data."""
        return _conf_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineConf":
        """Build an EngineConf from a (possibly nested) plain dict.

        Unknown keys — at any nesting level — raise :class:`ConfigError`
        listing the valid ones."""
        return _conf_from_dict(cls, data)


def _conf_to_dict(conf: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in fields(conf):
        value = getattr(conf, f.name)
        if is_dataclass(value) and not isinstance(value, type):
            out[f.name] = _conf_to_dict(value)
        elif isinstance(value, Enum):
            out[f.name] = value.value
        else:
            out[f.name] = value
    return out


def _conf_from_dict(cls: type, data: Any) -> Any:
    if not isinstance(data, dict):
        raise ConfigError(f"{cls.__name__} expects a dict, got {type(data).__name__}")
    valid = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ConfigError(
            f"unknown {cls.__name__} key(s) {unknown}; "
            f"valid keys: {sorted(valid)}"
        )
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        f = valid[name]
        sub_cls = f.default_factory if f.default_factory is not _MISSING else None
        if sub_cls is not None and is_dataclass(sub_cls):
            if isinstance(value, dict):
                kwargs[name] = _conf_from_dict(sub_cls, value)
            elif isinstance(value, sub_cls):
                kwargs[name] = value
            else:
                raise ConfigError(
                    f"{cls.__name__}.{name} expects a dict or {sub_cls.__name__}, "
                    f"got {type(value).__name__}"
                )
        elif name == "scheduling_mode" and not isinstance(value, SchedulingMode):
            try:
                kwargs[name] = SchedulingMode(value)
            except ValueError as err:
                raise ConfigError(
                    f"unknown scheduling_mode {value!r}; valid: "
                    f"{[m.value for m in SchedulingMode]}"
                ) from err
        else:
            kwargs[name] = value
    return cls(**kwargs)
