"""Counter / timer registry.

Drizzle's group-size tuner (§3.4) is driven by counters that "track the
amount of time spent in various parts of the system"; the registry here is
that mechanism.  It is also used by benchmarks to extract the scheduler-
delay / task-transfer / compute breakdown of Figure 4(b).
"""

from __future__ import annotations

import threading
from array import array
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.common.clock import Clock, WallClock
from repro.common.stats import percentile


class Counter:
    """A thread-safe additive counter."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


# Ring capacity for TimeSeries.  Generous on purpose: series record
# control-plane events (batches, groups, decisions), so even a multi-hour
# soak at ~10 samples/s fits without eviction; the bound only exists so
# an unattended streaming run cannot grow memory without limit.
DEFAULT_SERIES_MAX_SAMPLES = 65_536


class TimeSeries:
    """A thread-safe bounded ring of samples.

    Older samples are evicted once ``max_samples`` is reached; evictions
    are counted and surfaced as ``dropped`` in registry snapshots, so a
    summary computed over a truncated window says so explicitly.
    """

    def __init__(self, name: str, max_samples: int = DEFAULT_SERIES_MAX_SAMPLES):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self._dropped = 0
        self._lock = threading.Lock()

    def record(self, sample: float) -> None:
        with self._lock:
            if len(self._samples) == self._samples.maxlen:
                self._dropped += 1
            self._samples.append(sample)

    def snapshot(self) -> List[float]:
        with self._lock:
            return list(self._samples)

    @property
    def dropped(self) -> int:
        """Samples evicted from the ring since the last reset."""
        with self._lock:
            return self._dropped

    @property
    def max_samples(self) -> int:
        return self._samples.maxlen or 0

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


class Gauge:
    """A thread-safe last-value metric (e.g. current group size)."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float = 1.0) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


def _summarize(samples: List[float]) -> Dict[str, float]:
    """p50/p95/p99 summary used for histogram and series snapshots."""
    if not samples:
        return {"count": 0}
    return {
        "count": len(samples),
        "sum": sum(samples),
        "mean": sum(samples) / len(samples),
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
        "max": max(samples),
    }


class Histogram:
    """A thread-safe sample accumulator with percentile summaries.

    Samples are kept exactly and without bound, packed as doubles: 8
    bytes each, not a boxed float.  A long stream records a few dozen per
    micro-batch, so a day's run holds millions.  Readers address samples
    by index ("everything after the i-th"), so nothing is ever evicted;
    ``read`` hands out a bounded slice without copying the rest.
    ``summary()`` reports p50/p95/p99 via
    :func:`repro.common.stats.percentile`.
    """

    def __init__(self, name: str):
        self.name = name
        self._samples = array("d")
        self._lock = threading.Lock()

    def record(self, sample: float) -> None:
        with self._lock:
            self._samples.append(float(sample))

    def snapshot(self) -> List[float]:
        with self._lock:
            return self._samples.tolist()

    def read(self, start: int, limit: int) -> Tuple[int, List[float]]:
        """The number of samples recorded so far, and at most ``limit`` of
        them from index ``start`` on — one consistent read."""
        with self._lock:
            return len(self._samples), self._samples[start : start + limit].tolist()

    def summary(self) -> Dict[str, float]:
        return _summarize(self.snapshot())

    def reset(self) -> None:
        with self._lock:
            self._samples = array("d")

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)


class MetricsRegistry:
    """Named counters, series, gauges, and histograms, created on first use."""

    def __init__(self, clock: Clock | None = None):
        self._clock = clock or WallClock()
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name)
            return self._counters[name]

    def series(self, name: str, max_samples: Optional[int] = None) -> TimeSeries:
        with self._lock:
            if name not in self._series:
                self._series[name] = TimeSeries(
                    name, max_samples or DEFAULT_SERIES_MAX_SAMPLES
                )
            return self._series[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name)
            return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name)
            return self._histograms[name]

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Accumulate elapsed wall time into counter ``name`` AND record
        the individual sample into a same-named histogram, so timers
        yield percentiles rather than just totals."""
        start = self._clock.now()
        try:
            yield
        finally:
            elapsed = self._clock.now() - start
            self.counter(name).add(elapsed)
            self.histogram(name).record(elapsed)

    def counters_snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {name: c.value for name, c in self._counters.items()}

    def gauges_snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {name: g.value for name, g in self._gauges.items()}

    def histogram_names(self) -> List[str]:
        """Names of every histogram created so far (delta shippers walk
        these to find new samples without materializing summaries)."""
        with self._lock:
            return list(self._histograms)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """One unified snapshot: counters, gauges, and p50/p95/p99
        summaries of every histogram and series (JSON-serializable).
        Series summaries carry a ``dropped`` count: samples evicted from
        the bounded ring, i.e. how much history the summary is missing."""
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = {name: h.summary() for name, h in self._histograms.items()}
            series = {
                name: {**_summarize(s.snapshot()), "dropped": s.dropped}
                for name, s in self._series.items()
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "series": series,
        }

    def reset(self) -> None:
        with self._lock:
            for c in self._counters.values():
                c.reset()
            for s in self._series.values():
                s.reset()
            for g in self._gauges.values():
                g.reset()
            for h in self._histograms.values():
                h.reset()


# Canonical metric names shared between the engine and the tuner.
TIME_SCHEDULING = "time.scheduling"
TIME_TASK_TRANSFER = "time.task_transfer"
TIME_COMPUTE = "time.compute"
TIME_COORDINATION = "time.coordination"
COUNT_TASKS_LAUNCHED = "count.tasks_launched"
COUNT_RPC_MESSAGES = "count.rpc_messages"
# Launch messages sent by the centralized driver (the coordination cost
# that group scheduling amortizes, §3.1).
COUNT_LAUNCH_RPCS = "count.launch_rpcs"
COUNT_GROUPS_SCHEDULED = "count.groups_scheduled"
COUNT_BATCHES_EXECUTED = "count.batches_executed"
COUNT_CHECKPOINTS = "count.checkpoints"
# Keys whose values a checkpoint copied (summed over stores): the delta
# since the previous checkpoint, or every key when a store's checkpoint is
# a full base (its first, and the first after a restore).
COUNT_CHECKPOINT_KEYS_COPIED = "streaming.checkpoint_keys_copied"
COUNT_RECOVERIES = "count.recoveries"
COUNT_SPECULATIVE = "count.speculative_tasks"
# Wire-level counters maintained by the tcp transport (repro.net): framed
# bytes actually written to / read from sockets, connections dialled, and
# connect retries spent against the bounded backoff budget.  The inproc
# transport never moves bytes, so these stay zero there — the difference
# IS the coordination cost the paper amortizes.
COUNT_NET_BYTES_SENT = "net.bytes_sent"
COUNT_NET_BYTES_RECEIVED = "net.bytes_received"
COUNT_NET_CONNECTIONS = "net.connections"
COUNT_NET_CONNECT_RETRIES = "net.connect_retries"
# Per-method round-trip latency histograms are registered as
# "{HIST_NET_CALL_LATENCY}.{method}" (e.g. "net.call_latency.launch_tasks").
# A posted (one-way) message gets one sample too: post -> acknowledged.
HIST_NET_CALL_LATENCY = "net.call_latency"
# Request-direction frames written to sockets: one per call() exchange
# (plumbing included) and one per one-way frame, however many posted
# messages it carries — count.rpc_messages counts those logical messages,
# this counts what they cost on the wire.  Every such frame is answered by
# exactly one response frame.  net.messages_per_frame records the size of
# each one-way frame (calls always carry one message and are not sampled).
COUNT_NET_FRAMES_SENT = "net.frames_sent"
HIST_NET_MESSAGES_PER_FRAME = "net.messages_per_frame"
# Data-plane fast path (see "Data plane" in docs/networking.md): batched
# shuffle pulls and the content-addressed stage-blob cache on the launch
# path.  A cache "hit" is a launch that shipped only digest tokens to a
# worker; a "miss" attached the serialized stage blob (first ship or
# stage_miss reship).
COUNT_NET_FETCH_BATCHES = "net.fetch_batches"
# Dials to an address the pool had already connected to before — i.e.
# re-dials after an invalidation, idle-pool exhaustion, or a peer crash.
# Backoff between attempts is jittered so a thundering herd of redials
# after a server kill does not synchronize.
COUNT_NET_REDIALS = "net.redials"
HIST_NET_BUCKETS_PER_FETCH = "net.buckets_per_fetch"
COUNT_STAGE_CACHE_HIT = "serde.stage_cache_hit"
COUNT_STAGE_CACHE_MISS = "serde.stage_cache_miss"
# net.launch_bytes_sent isolates driver launch-path wire bytes from the
# O(group) fetch/report traffic so the bench can show bytes/group.
COUNT_NET_LAUNCH_BYTES_SENT = "net.launch_bytes_sent"
# Fault injection (repro.chaos): every fault the injector fires counts
# once here and once on a per-kind counter named "chaos.<kind>"
# (e.g. "chaos.worker_kill") — a prefix family like net.call_latency.
# A scheduled fault withheld by a safety guard (kill budget) counts as
# suppressed instead.
COUNT_CHAOS_INJECTED = "chaos.injected"
COUNT_CHAOS_SUPPRESSED = "chaos.suppressed"
CHAOS_KIND_PREFIX = "chaos"
# Live telemetry plane (repro.obs.live).  The telemetry.* family is
# recorded into each worker's *private* telemetry registry (within a
# LocalCluster the main registry is shared, so per-worker attribution
# needs a separate one) and shipped to the driver as delta snapshots.
HIST_TELEMETRY_QUEUE_DELAY = "telemetry.queue_delay"  # accept -> run start
COUNT_TELEMETRY_TASKS = "telemetry.tasks"
COUNT_TELEMETRY_RECORDS = "telemetry.records"
GAUGE_TELEMETRY_BACKLOG = "telemetry.backlog"  # tasks parked on deps
# Per-stage task latency histograms are registered as
# "{TELEMETRY_STAGE_LATENCY_PREFIX}.{stage_index}" — a prefix family
# like net.call_latency.
TELEMETRY_STAGE_LATENCY_PREFIX = "telemetry.stage_latency"
# Driver-side telemetry bookkeeping (recorded on the driver registry).
COUNT_TELEMETRY_DELTAS = "telemetry.deltas_ingested"
GAUGE_TELEMETRY_STREAM_BACKLOG = "telemetry.stream_backlog"
HIST_TELEMETRY_BATCH_WALL = "telemetry.batch_wall"
# SLO watchdog: one count per threshold breach detected by the
# ClusterTelemetry store (paired with an "slo.violation" trace instant).
COUNT_SLO_VIOLATIONS = "slo.violations"
# Elastic autoscaling (repro.elastic.controller): every policy decision
# counts once (including delta-0 holds); a resize is a decision that
# actually changed the worker set at a group boundary, split out by
# direction on workers_added / workers_removed.
COUNT_ELASTIC_DECISIONS = "elastic.decisions"
COUNT_ELASTIC_RESIZES = "elastic.resizes"
COUNT_ELASTIC_WORKERS_ADDED = "elastic.workers_added"
COUNT_ELASTIC_WORKERS_REMOVED = "elastic.workers_removed"
# Re-established connections: a dial to an address whose previous
# connection was actually established before (net.redials also counts
# attempts that never connected; net.reconnects counts only dials that
# succeeded after a prior success — the wire-level "came back" signal).
COUNT_NET_RECONNECTS = "net.reconnects"
# Driver fault tolerance (repro.ha): control-plane WAL traffic, replay
# work done by recovery, and the fencing/parking behaviour of workers
# while a driver is down.  Every append is fsynced, so ha.wal_fsyncs
# equals ha.wal_appends.
COUNT_HA_WAL_APPENDS = "ha.wal_appends"
COUNT_HA_WAL_FSYNCS = "ha.wal_fsyncs"
COUNT_HA_WAL_REPLAYS = "ha.wal_replays"
COUNT_HA_WAL_BYTES = "ha.wal_bytes"
COUNT_HA_WAL_SNAPSHOTS = "ha.wal_snapshots"
COUNT_HA_FENCED = "ha.fenced"
COUNT_HA_PARKED_REPORTS = "ha.parked_reports"
COUNT_HA_RECOVERIES = "ha.recoveries"
