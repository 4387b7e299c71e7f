"""Canonical span, instant-event, and metric names.

Every instrumented name in the engine comes from this module so that a
typo is an import error, not a silently empty trace query.  Tests and the
``python -m repro.obs`` CLI match against these same constants, and
``SPAN_NAMES`` / ``EVENT_NAMES`` / ``METRIC_NAMES`` give linters and
analysis code one authoritative registry.
"""

from __future__ import annotations

from repro.common.metrics import (
    CHAOS_KIND_PREFIX,
    COUNT_BATCHES_EXECUTED,
    COUNT_CHAOS_INJECTED,
    COUNT_CHAOS_SUPPRESSED,
    COUNT_CHECKPOINT_KEYS_COPIED,
    COUNT_CHECKPOINTS,
    COUNT_ELASTIC_DECISIONS,
    COUNT_ELASTIC_RESIZES,
    COUNT_ELASTIC_WORKERS_ADDED,
    COUNT_ELASTIC_WORKERS_REMOVED,
    COUNT_GROUPS_SCHEDULED,
    COUNT_HA_FENCED,
    COUNT_HA_PARKED_REPORTS,
    COUNT_HA_RECOVERIES,
    COUNT_HA_WAL_APPENDS,
    COUNT_HA_WAL_BYTES,
    COUNT_HA_WAL_FSYNCS,
    COUNT_HA_WAL_REPLAYS,
    COUNT_HA_WAL_SNAPSHOTS,
    COUNT_LAUNCH_RPCS,
    COUNT_NET_BYTES_RECEIVED,
    COUNT_NET_BYTES_SENT,
    COUNT_NET_CONNECT_RETRIES,
    COUNT_NET_CONNECTIONS,
    COUNT_NET_FETCH_BATCHES,
    COUNT_NET_FRAMES_SENT,
    COUNT_NET_LAUNCH_BYTES_SENT,
    COUNT_NET_RECONNECTS,
    COUNT_NET_REDIALS,
    COUNT_RECOVERIES,
    COUNT_RPC_MESSAGES,
    COUNT_SLO_VIOLATIONS,
    COUNT_SPECULATIVE,
    COUNT_STAGE_CACHE_HIT,
    COUNT_STAGE_CACHE_MISS,
    COUNT_TASKS_LAUNCHED,
    COUNT_TELEMETRY_DELTAS,
    COUNT_TELEMETRY_RECORDS,
    COUNT_TELEMETRY_TASKS,
    GAUGE_TELEMETRY_BACKLOG,
    GAUGE_TELEMETRY_STREAM_BACKLOG,
    HIST_NET_BUCKETS_PER_FETCH,
    HIST_NET_CALL_LATENCY,
    HIST_NET_MESSAGES_PER_FRAME,
    HIST_TELEMETRY_BATCH_WALL,
    HIST_TELEMETRY_QUEUE_DELAY,
    TELEMETRY_STAGE_LATENCY_PREFIX,
    TIME_COMPUTE,
    TIME_COORDINATION,
    TIME_SCHEDULING,
    TIME_TASK_TRANSFER,
)

# ----------------------------------------------------------------------
# Span names (duration events).  The dot prefix is the Perfetto category:
# "task.compute" renders under category "task".
# ----------------------------------------------------------------------
SPAN_BATCH = "batch"  # one micro-batch (= one job), driver-side root
SPAN_GROUP = "group"  # one group-scheduling round (§3.1)
SPAN_STAGE = "stage"  # one stage of one micro-batch
SPAN_TASK_SCHEDULE = "task.schedule"  # placement + descriptor building
SPAN_TASK_LAUNCH_RPC = "task.launch_rpc"  # driver -> worker launch messages
SPAN_TASK_FETCH = "task.fetch"  # reduce-side shuffle pull
SPAN_TASK_COMPUTE = "task.compute"  # one task attempt on a worker
SPAN_TASK_EXEC = "task.exec"  # the compute core on an executor backend
# (recorded when the stage crossed a process boundary)
SPAN_TASK_REPORT = "task.report"  # worker -> driver completion report
SPAN_CHECKPOINT = "checkpoint"  # synchronous group-boundary checkpoint
SPAN_RECOVERY = "recovery"  # worker-loss / replay recovery window

SPAN_NAMES = frozenset(
    {
        SPAN_BATCH,
        SPAN_GROUP,
        SPAN_STAGE,
        SPAN_TASK_SCHEDULE,
        SPAN_TASK_LAUNCH_RPC,
        SPAN_TASK_FETCH,
        SPAN_TASK_COMPUTE,
        SPAN_TASK_EXEC,
        SPAN_TASK_REPORT,
        SPAN_CHECKPOINT,
        SPAN_RECOVERY,
    }
)

# The control-plane phases of the Fig. 4(b) decomposition, in display
# order; ``python -m repro.obs summarize`` reports these per batch.
PHASE_SPANS = (
    SPAN_TASK_SCHEDULE,
    SPAN_TASK_LAUNCH_RPC,
    SPAN_TASK_FETCH,
    SPAN_TASK_COMPUTE,
    SPAN_TASK_REPORT,
)

# ----------------------------------------------------------------------
# Instant events (zero-duration annotations).
# ----------------------------------------------------------------------
EVENT_TUNER_DECISION = "tuner.decision"  # §3.4 AIMD step, on the group span
EVENT_TASK_RESUBMIT = "task.resubmit"  # recovery/speculation re-placement
EVENT_CHAOS_FAULT = "chaos.fault"  # one injected fault (repro.chaos)
EVENT_SLO_VIOLATION = "slo.violation"  # telemetry watchdog threshold breach
EVENT_SCALE_DECISION = "elastic.decision"  # §3.3 controller verdict per boundary

EVENT_NAMES = frozenset(
    {
        EVENT_TUNER_DECISION,
        EVENT_TASK_RESUBMIT,
        EVENT_CHAOS_FAULT,
        EVENT_SLO_VIOLATION,
        EVENT_SCALE_DECISION,
    }
)

# ----------------------------------------------------------------------
# Metric names (re-exported so one import site covers spans AND metrics).
# ----------------------------------------------------------------------
METRIC_NAMES = frozenset(
    {
        TIME_SCHEDULING,
        TIME_TASK_TRANSFER,
        TIME_COMPUTE,
        TIME_COORDINATION,
        COUNT_TASKS_LAUNCHED,
        COUNT_RPC_MESSAGES,
        COUNT_LAUNCH_RPCS,
        COUNT_GROUPS_SCHEDULED,
        COUNT_BATCHES_EXECUTED,
        COUNT_CHECKPOINTS,
        COUNT_CHECKPOINT_KEYS_COPIED,
        COUNT_RECOVERIES,
        COUNT_SPECULATIVE,
        COUNT_NET_BYTES_SENT,
        COUNT_NET_BYTES_RECEIVED,
        COUNT_NET_CONNECTIONS,
        COUNT_NET_CONNECT_RETRIES,
        COUNT_NET_FETCH_BATCHES,
        COUNT_NET_FRAMES_SENT,
        HIST_NET_MESSAGES_PER_FRAME,
        COUNT_NET_REDIALS,
        COUNT_NET_RECONNECTS,
        HIST_NET_BUCKETS_PER_FETCH,
        COUNT_STAGE_CACHE_HIT,
        COUNT_STAGE_CACHE_MISS,
        COUNT_NET_LAUNCH_BYTES_SENT,
        COUNT_CHAOS_INJECTED,
        COUNT_CHAOS_SUPPRESSED,
        HIST_TELEMETRY_QUEUE_DELAY,
        COUNT_TELEMETRY_TASKS,
        COUNT_TELEMETRY_RECORDS,
        GAUGE_TELEMETRY_BACKLOG,
        COUNT_TELEMETRY_DELTAS,
        GAUGE_TELEMETRY_STREAM_BACKLOG,
        HIST_TELEMETRY_BATCH_WALL,
        COUNT_SLO_VIOLATIONS,
        COUNT_ELASTIC_DECISIONS,
        COUNT_ELASTIC_RESIZES,
        COUNT_ELASTIC_WORKERS_ADDED,
        COUNT_ELASTIC_WORKERS_REMOVED,
        COUNT_HA_WAL_APPENDS,
        COUNT_HA_WAL_FSYNCS,
        COUNT_HA_WAL_REPLAYS,
        COUNT_HA_WAL_BYTES,
        COUNT_HA_WAL_SNAPSHOTS,
        COUNT_HA_FENCED,
        COUNT_HA_PARKED_REPORTS,
        COUNT_HA_RECOVERIES,
    }
)

# Per-method wire round-trip histograms (tcp transport) are named
# "{HIST_NET_CALL_LATENCY}.{method}" — a prefix family, not a member of
# METRIC_NAMES, because the method suffix is open-ended.
NET_CALL_LATENCY_PREFIX = HIST_NET_CALL_LATENCY
# Per-kind injected-fault counters ("chaos.worker_kill", ...) are the
# same kind of open-ended prefix family.
CHAOS_METRIC_PREFIX = CHAOS_KIND_PREFIX
# Per-stage latency histograms ("telemetry.stage_latency.0", ...) shipped
# by the live telemetry plane.
STAGE_LATENCY_PREFIX = TELEMETRY_STAGE_LATENCY_PREFIX

# Open-ended metric families: any emitted name starting with one of
# these prefixes (plus a ".") is considered registered.  The bench
# harness times each experiment as "bench.<name>".
METRIC_PREFIXES = (
    NET_CALL_LATENCY_PREFIX,
    CHAOS_METRIC_PREFIX,
    STAGE_LATENCY_PREFIX,
    "bench",
)


def is_registered_metric(name: str) -> bool:
    """True when ``name`` is in the catalog, either as an exact member of
    ``METRIC_NAMES`` or under one of the ``METRIC_PREFIXES`` families."""
    if name in METRIC_NAMES:
        return True
    return any(name.startswith(prefix + ".") for prefix in METRIC_PREFIXES)

# Span name -> metric counter that times the same code region; the CLI
# uses this to cross-check span totals against the counter values.
SPAN_TO_METRIC = {
    SPAN_TASK_SCHEDULE: TIME_SCHEDULING,
    SPAN_TASK_LAUNCH_RPC: TIME_TASK_TRANSFER,
    SPAN_TASK_COMPUTE: TIME_COMPUTE,
}

__all__ = [
    "SPAN_BATCH",
    "SPAN_GROUP",
    "SPAN_STAGE",
    "SPAN_TASK_SCHEDULE",
    "SPAN_TASK_LAUNCH_RPC",
    "SPAN_TASK_FETCH",
    "SPAN_TASK_COMPUTE",
    "SPAN_TASK_REPORT",
    "SPAN_CHECKPOINT",
    "SPAN_RECOVERY",
    "SPAN_NAMES",
    "PHASE_SPANS",
    "EVENT_TUNER_DECISION",
    "EVENT_TASK_RESUBMIT",
    "EVENT_CHAOS_FAULT",
    "EVENT_SLO_VIOLATION",
    "EVENT_SCALE_DECISION",
    "EVENT_NAMES",
    "METRIC_NAMES",
    "NET_CALL_LATENCY_PREFIX",
    "CHAOS_METRIC_PREFIX",
    "STAGE_LATENCY_PREFIX",
    "METRIC_PREFIXES",
    "is_registered_metric",
    "SPAN_TO_METRIC",
]
