"""Cluster-wide live telemetry plane.

Since the tcp transport and the process executor backend, each worker is
(or behaves like) its own process: ``cluster.metrics.snapshot()`` on the
driver cannot see per-worker queueing delay, stage latency, throughput,
or backlog.  This module closes that gap:

* :class:`DeltaSnapshotter` — worker-side: computes *incremental*
  snapshots of a :class:`~repro.common.metrics.MetricsRegistry` (counter
  increments, changed gauges, new histogram samples) so each shipped
  payload carries only what happened since the last one.
* :class:`ClusterTelemetry` — driver-side: a time-series store with
  bounded ring buffers per ``(worker, metric)``, merge-on-arrival
  rollups, derived **health signals** over a sliding window, staleness
  tracking off the shipping cadence, chaos-fault annotations, and an
  SLO watchdog that emits ``slo.violation`` trace instants plus a driver
  log line when a signal breaches its configured threshold.

Shipping (see ``docs/observability.md``) has one route, heartbeats on
or off: each worker runs a loop calling
:meth:`BaseTransport.ship_telemetry`, which both backends implement as
*uncounted* plumbing — like ``__announce__``/``__ping__`` — so arming
telemetry preserves the ±0 ``count.rpc_messages`` parity between the
inproc and tcp transports.

``ClusterTelemetry.signals()`` is the stable API operators and the
elastic scaling policy read: with an elastic controller attached, the
streaming context reads it once per group onto that group's
:class:`~repro.core.groups.GroupObservation`.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.common.clock import Clock, WallClock
from repro.common.config import TelemetryConf
from repro.common.metrics import (
    COUNT_CHAOS_INJECTED,
    COUNT_NET_CONNECT_RETRIES,
    COUNT_NET_REDIALS,
    COUNT_RECOVERIES,
    COUNT_SLO_VIOLATIONS,
    COUNT_TELEMETRY_DELTAS,
    COUNT_TELEMETRY_RECORDS,
    COUNT_TELEMETRY_TASKS,
    GAUGE_TELEMETRY_BACKLOG,
    GAUGE_TELEMETRY_STREAM_BACKLOG,
    HIST_TELEMETRY_BATCH_WALL,
    HIST_TELEMETRY_QUEUE_DELAY,
    TELEMETRY_STAGE_LATENCY_PREFIX,
    TIME_SCHEDULING,
    TIME_TASK_TRANSFER,
    MetricsRegistry,
    _summarize,
)
from repro.obs.names import EVENT_SLO_VIOLATION
from repro.obs.trace import NULL_RECORDER, Recorder

log = logging.getLogger("repro.obs.live")

# The driver's own registry is folded into the store under this timeline
# id; it is never subject to staleness (the driver polls itself).
DRIVER_TIMELINE = "driver"

# Ring-buffer entries retained per (worker, metric) on the driver.
_RETENTION = 512
# Cap on histogram samples shipped in one delta; the remainder ships on
# the next tick (bounds the payload of any single message).
_MAX_SAMPLES_PER_DELTA = 512
# Window over which signals() derives rates and percentiles by default.
_SIGNAL_WINDOW_S = 5.0
# Bounded per-worker fault-annotation ring (chaos events are rare).
_MAX_FAULTS = 64
# Bounded SLO violation log.
_MAX_VIOLATIONS = 256
# Bounded cluster-wide scale-event ring (joins/leaves/losses + controller
# decisions; membership churn is orders of magnitude rarer than deltas).
_MAX_SCALE_EVENTS = 64


class DeltaSnapshotter:
    """Incremental snapshots of one :class:`MetricsRegistry`.

    Each :meth:`delta` call returns what changed since the previous call:

    * ``counters`` — name -> increment (omitted when unchanged),
    * ``gauges`` — name -> current value (only when changed),
    * ``samples`` — histogram name -> new samples since the last cursor,
      capped at ``max_samples`` per delta (the rest ship next time).

    Returns ``None`` when nothing changed.  A registry ``reset()``
    underneath the snapshotter is detected (counter went backwards /
    cursor past the end) and treated as a fresh start, not an error.
    Thread-safe: ship loops and on-demand pollers may race.
    """

    def __init__(
        self, registry: MetricsRegistry, max_samples: int = _MAX_SAMPLES_PER_DELTA
    ):
        self.registry = registry
        self.max_samples = max_samples
        self._counter_last: Dict[str, float] = {}
        self._gauge_last: Dict[str, float] = {}
        self._hist_cursor: Dict[str, int] = {}
        self._seq = 0
        self._lock = threading.Lock()

    def delta(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            counters: Dict[str, float] = {}
            for name, value in self.registry.counters_snapshot().items():
                last = self._counter_last.get(name, 0.0)
                if value < last:  # registry reset underneath us
                    last = 0.0
                self._counter_last[name] = value
                if value != last:
                    counters[name] = value - last
            gauges: Dict[str, float] = {}
            for name, value in self.registry.gauges_snapshot().items():
                if self._gauge_last.get(name) != value:
                    gauges[name] = value
                    self._gauge_last[name] = value
            samples: Dict[str, List[float]] = {}
            for name in self.registry.histogram_names():
                hist = self.registry.histogram(name)
                cursor = self._hist_cursor.get(name, 0)
                count, fresh = hist.read(cursor, self.max_samples)
                if cursor > count:  # reset underneath us
                    cursor = 0
                    fresh = hist.read(0, self.max_samples)[1]
                self._hist_cursor[name] = cursor + len(fresh)
                if fresh:
                    samples[name] = fresh
            if not counters and not gauges and not samples:
                return None
            self._seq += 1
            return {
                "seq": self._seq,
                "counters": counters,
                "gauges": gauges,
                "samples": samples,
            }


class _Timeline:
    """Driver-side state for one worker (or the driver itself)."""

    def __init__(self, created_at: float):
        self.created_at = created_at
        self.last_seen = created_at
        self.deltas = 0
        # Merged cumulative counters, plus a (t, cumulative) ring per
        # counter so windowed rates can be derived.
        self.counters: Dict[str, float] = {}
        self.counter_rings: Dict[str, Deque[Tuple[float, float]]] = {}
        self.gauges: Dict[str, float] = {}
        # Histogram samples as (t, value) rings.
        self.samples: Dict[str, Deque[Tuple[float, float]]] = {}
        self.faults: Deque[Dict[str, Any]] = deque(maxlen=_MAX_FAULTS)

    def merge(self, delta: Dict[str, Any], now: float) -> None:
        self.last_seen = now
        self.deltas += 1
        for name, inc in (delta.get("counters") or {}).items():
            total = self.counters.get(name, 0.0) + inc
            self.counters[name] = total
            ring = self.counter_rings.get(name)
            if ring is None:
                ring = self.counter_rings[name] = deque(maxlen=_RETENTION)
            ring.append((now, total))
        for name, value in (delta.get("gauges") or {}).items():
            self.gauges[name] = float(value)
        for name, new_samples in (delta.get("samples") or {}).items():
            ring = self.samples.get(name)
            if ring is None:
                ring = self.samples[name] = deque(maxlen=_RETENTION)
            for s in new_samples:
                ring.append((now, float(s)))

    def windowed_increase(self, name: str, now: float, window_s: float) -> float:
        """Counter increase over the trailing window.  Cumulative values
        start at 0 when the timeline is created, so a timeline younger
        than the window reports its total."""
        ring = self.counter_rings.get(name)
        if not ring:
            return 0.0
        cutoff = now - window_s
        baseline = 0.0
        latest = ring[-1][1]
        for t, value in ring:
            if t >= cutoff:
                break
            baseline = value
        return max(latest - baseline, 0.0)

    def windowed_samples(self, name: str, now: float, window_s: float) -> List[float]:
        ring = self.samples.get(name)
        if not ring:
            return []
        cutoff = now - window_s
        return [v for t, v in ring if t >= cutoff]


def _ms(summary: Dict[str, float]) -> Dict[str, float]:
    """Convert a seconds summary to milliseconds (counts stay counts)."""
    out: Dict[str, float] = {}
    for key, value in summary.items():
        out[key] = value if key in ("count", "dropped") else value * 1000.0
    return out


class ClusterTelemetry:
    """The driver-side time-series store and signal deriver.

    Thread-safe: deltas arrive from transport server threads while ``signals()`` / ``rollup()`` are read from the
    driver loop, the dashboard, and the HTTP endpoint.
    """

    def __init__(
        self,
        conf: Optional[TelemetryConf] = None,
        clock: Optional[Clock] = None,
        driver_metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Recorder] = None,
        stale_after_s: Optional[float] = None,
    ):
        self.conf = conf or TelemetryConf(enabled=True)
        self.clock = clock or WallClock()
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        # A worker is stale once nothing arrived for this long: four
        # missed shipping intervals by default.
        self.stale_after_s = (
            stale_after_s
            if stale_after_s is not None
            else max(4 * self.conf.interval_s, 0.2)
        )
        self._driver_metrics = driver_metrics
        self._driver_snap = (
            DeltaSnapshotter(driver_metrics)
            if driver_metrics is not None
            else None
        )
        self._timelines: Dict[str, _Timeline] = {}
        # Driver poll times: the wall-clock spine for coordination signals.
        self._poll_times: Deque[float] = deque(maxlen=_RETENTION)
        self.violations: List[Dict[str, Any]] = []
        self.scale_events: Deque[Dict[str, Any]] = deque(maxlen=_MAX_SCALE_EVENTS)
        self._last_slo_check = float("-inf")
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, worker_id: str, delta: Optional[Dict[str, Any]]) -> None:
        """Merge one shipped delta onto ``worker_id``'s timeline.

        ``None``/empty deltas still refresh liveness (a ship with
        nothing new is proof of life, not silence)."""
        now = self.clock.now()
        with self._lock:
            timeline = self._timeline_locked(worker_id, now)
            if delta:
                timeline.merge(delta, now)
            else:
                timeline.last_seen = now
        if delta and worker_id != DRIVER_TIMELINE:
            if self._driver_metrics is not None:
                self._driver_metrics.counter(COUNT_TELEMETRY_DELTAS).add(1)
            self._maybe_check_slo(now)

    def record_sample(
        self, name: str, value: float, worker_id: str = DRIVER_TIMELINE
    ) -> None:
        """Driver-side direct recording (e.g. per-batch wall time)."""
        now = self.clock.now()
        with self._lock:
            timeline = self._timeline_locked(worker_id, now)
            ring = timeline.samples.get(name)
            if ring is None:
                ring = timeline.samples[name] = deque(maxlen=_RETENTION)
            ring.append((now, float(value)))

    def set_gauge(
        self, name: str, value: float, worker_id: str = DRIVER_TIMELINE
    ) -> None:
        with self._lock:
            timeline = self._timeline_locked(worker_id, self.clock.now())
            timeline.gauges[name] = float(value)

    def observe_batch(self, wall_s: float) -> None:
        """One micro-batch completed in ``wall_s`` (streaming context)."""
        self.record_sample(HIST_TELEMETRY_BATCH_WALL, wall_s)

    def observe_stream_backlog(self, remaining_batches: int) -> None:
        self.set_gauge(GAUGE_TELEMETRY_STREAM_BACKLOG, remaining_batches)

    def annotate_fault(self, worker_id: str, kind: str, site: str) -> None:
        """Pin a chaos fault onto the affected worker's timeline.  Does
        not refresh liveness: a fault is not proof of life."""
        now = self.clock.now()
        with self._lock:
            timeline = self._timelines.get(worker_id)
            if timeline is None:
                timeline = self._timelines[worker_id] = _Timeline(now)
                # A timeline born from a fault has never shipped data;
                # make it immediately stale rather than freshly seen.
                timeline.last_seen = now - self.stale_after_s - 1e-9
            timeline.faults.append({"t": now, "kind": kind, "site": site})

    def annotate_scale_event(
        self, worker_id: str, action: str, reason: str = ""
    ) -> None:
        """Record a membership change (``join`` / ``leave`` / ``lost``)
        with the controller's (or failure detector's) reason, for the
        dashboard's scale-event lines."""
        now = self.clock.now()
        with self._lock:
            self.scale_events.append(
                {"t": now, "worker": worker_id, "action": action, "reason": reason}
            )

    def _timeline_locked(self, worker_id: str, now: float) -> _Timeline:
        timeline = self._timelines.get(worker_id)
        if timeline is None:
            timeline = self._timelines[worker_id] = _Timeline(now)
        return timeline

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def workers(self) -> List[str]:
        with self._lock:
            return sorted(w for w in self._timelines if w != DRIVER_TIMELINE)

    def is_stale(self, worker_id: str, now: Optional[float] = None) -> bool:
        now = self.clock.now() if now is None else now
        with self._lock:
            timeline = self._timelines.get(worker_id)
        if timeline is None:
            return True
        return (now - timeline.last_seen) > self.stale_after_s

    def stale_workers(self, now: Optional[float] = None) -> List[str]:
        now = self.clock.now() if now is None else now
        return [w for w in self.workers() if self.is_stale(w, now)]

    def live_workers(self, now: Optional[float] = None) -> List[str]:
        now = self.clock.now() if now is None else now
        return [w for w in self.workers() if not self.is_stale(w, now)]

    # ------------------------------------------------------------------
    # Driver self-poll
    # ------------------------------------------------------------------
    def poll_driver(self) -> None:
        """Fold the driver registry's own delta into the store (the
        driver is its own pseudo-worker; no wire involved)."""
        if self._driver_snap is None:
            return
        now = self.clock.now()
        with self._lock:
            self._poll_times.append(now)
        delta = self._driver_snap.delta()
        if delta:
            self.ingest(DRIVER_TIMELINE, delta)

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def rollup(self, include_stale: bool = False) -> Dict[str, Any]:
        """Cluster-wide merge: per-worker state plus summed counters and
        merged histogram summaries across non-stale workers."""
        self.poll_driver()
        now = self.clock.now()
        with self._lock:
            per_worker: Dict[str, Any] = {}
            cluster_counters: Dict[str, float] = {}
            merged_samples: Dict[str, List[float]] = {}
            stale: List[str] = []
            live: List[str] = []
            for worker_id in sorted(self._timelines):
                timeline = self._timelines[worker_id]
                is_stale = (
                    worker_id != DRIVER_TIMELINE
                    and (now - timeline.last_seen) > self.stale_after_s
                )
                if worker_id != DRIVER_TIMELINE:
                    (stale if is_stale else live).append(worker_id)
                per_worker[worker_id] = {
                    "stale": is_stale,
                    "age_s": now - timeline.last_seen,
                    "deltas": timeline.deltas,
                    "counters": dict(timeline.counters),
                    "gauges": dict(timeline.gauges),
                    "histograms": {
                        name: _summarize([v for _t, v in ring])
                        for name, ring in timeline.samples.items()
                    },
                    "faults": list(timeline.faults),
                }
                if is_stale and not include_stale:
                    continue
                for name, value in timeline.counters.items():
                    cluster_counters[name] = cluster_counters.get(name, 0.0) + value
                for name, ring in timeline.samples.items():
                    merged_samples.setdefault(name, []).extend(
                        v for _t, v in ring
                    )
        with self._lock:
            scale_events = list(self.scale_events)
        return {
            "generated_at": now,
            "stale_after_s": self.stale_after_s,
            "workers": per_worker,
            "live_workers": live,
            "stale_workers": stale,
            "scale_events": scale_events,
            "cluster": {
                "counters": cluster_counters,
                "histograms": {
                    name: _summarize(vals) for name, vals in merged_samples.items()
                },
            },
        }

    # ------------------------------------------------------------------
    # Derived health signals
    # ------------------------------------------------------------------
    def signals(self, window_s: Optional[float] = None) -> Dict[str, Any]:
        """Windowed health signals, excluding stale workers.  The keys
        below are a stable API (``SignalScalingPolicy`` reads them off
        each group's observation); see docs/observability.md for the
        formulas.
        """
        self.poll_driver()
        window = window_s if window_s is not None else _SIGNAL_WINDOW_S
        now = self.clock.now()
        with self._lock:
            live = {
                w: tl
                for w, tl in self._timelines.items()
                if w != DRIVER_TIMELINE
                and (now - tl.last_seen) <= self.stale_after_s
            }
            stale = sorted(
                w
                for w in self._timelines
                if w != DRIVER_TIMELINE and w not in live
            )
            queue_delay: List[float] = []
            stage_latency: Dict[str, List[float]] = {}
            backlog = 0.0
            tasks_inc = 0.0
            records_inc = 0.0
            span = 0.0
            stage_prefix = TELEMETRY_STAGE_LATENCY_PREFIX + "."
            for timeline in live.values():
                queue_delay.extend(
                    timeline.windowed_samples(HIST_TELEMETRY_QUEUE_DELAY, now, window)
                )
                for name in timeline.samples:
                    if name.startswith(stage_prefix):
                        stage_latency.setdefault(
                            name[len(stage_prefix) :], []
                        ).extend(timeline.windowed_samples(name, now, window))
                backlog += timeline.gauges.get(GAUGE_TELEMETRY_BACKLOG, 0.0)
                tasks_inc += timeline.windowed_increase(
                    COUNT_TELEMETRY_TASKS, now, window
                )
                records_inc += timeline.windowed_increase(
                    COUNT_TELEMETRY_RECORDS, now, window
                )
                span = max(span, min(window, now - timeline.created_at))
            driver_tl = self._timelines.get(DRIVER_TIMELINE)
            fault_rates: Dict[str, float] = {}
            coordination = {
                "scheduling_s": 0.0,
                "task_transfer_s": 0.0,
                "coordination_s": 0.0,
                "wall_s": 0.0,
                "overhead": 0.0,
            }
            streaming_backlog = 0.0
            batch_wall: List[float] = []
            if driver_tl is not None:
                driver_span = min(window, now - driver_tl.created_at)
                for label, counter in (
                    ("chaos_injected", COUNT_CHAOS_INJECTED),
                    ("recoveries", COUNT_RECOVERIES),
                    ("net_redials", COUNT_NET_REDIALS),
                    ("net_connect_retries", COUNT_NET_CONNECT_RETRIES),
                ):
                    inc = driver_tl.windowed_increase(counter, now, window)
                    fault_rates[f"{label}_per_s"] = (
                        inc / driver_span if driver_span > 0 else 0.0
                    )
                sched = driver_tl.windowed_increase(TIME_SCHEDULING, now, window)
                xfer = driver_tl.windowed_increase(TIME_TASK_TRANSFER, now, window)
                polls = [t for t in self._poll_times if t >= now - window]
                # Floor at the timeline's windowed age: right after the
                # first poll the poll span is ~0 and would make any
                # nonzero coordination time read as 100% overhead.
                wall = max(
                    (polls[-1] - polls[0]) if len(polls) >= 2 else 0.0,
                    driver_span,
                )
                coordination = {
                    "scheduling_s": sched,
                    "task_transfer_s": xfer,
                    "coordination_s": sched + xfer,
                    "wall_s": wall,
                    "overhead": min((sched + xfer) / wall, 1.0) if wall > 0 else 0.0,
                }
                streaming_backlog = driver_tl.gauges.get(
                    GAUGE_TELEMETRY_STREAM_BACKLOG, 0.0
                )
                batch_wall = driver_tl.windowed_samples(
                    HIST_TELEMETRY_BATCH_WALL, now, window
                )
            violations = len(self.violations)
            last_violation = self.violations[-1] if self.violations else None
        effective = span if span > 0 else window
        return {
            "generated_at": now,
            "window_s": window,
            "live_workers": sorted(live),
            "stale_workers": stale,
            "queueing_delay_ms": _ms(_summarize(queue_delay)),
            "stage_latency_ms": {
                stage: _ms(_summarize(vals))
                for stage, vals in sorted(stage_latency.items())
            },
            "tasks_per_s": tasks_inc / effective if effective > 0 else 0.0,
            "records_per_s": records_inc / effective if effective > 0 else 0.0,
            "backlog": backlog,
            "streaming_backlog": streaming_backlog,
            "batch_wall_ms": _ms(_summarize(batch_wall)),
            "fault_rates_per_s": fault_rates,
            "coordination": coordination,
            "slo": {"violations": violations, "last": last_violation},
        }

    # ------------------------------------------------------------------
    # SLO watchdog
    # ------------------------------------------------------------------
    def _maybe_check_slo(self, now: float) -> None:
        conf = self.conf
        if conf.slo_p99_ms is None and conf.slo_queue_delay_p99_ms is None:
            return
        with self._lock:
            # At most one evaluation per shipping interval: signals() is
            # not free and deltas can arrive from every worker at once.
            if now - self._last_slo_check < conf.interval_s:
                return
            self._last_slo_check = now
        sig = self.signals()
        breaches: List[Tuple[str, float, float]] = []
        if conf.slo_queue_delay_p99_ms is not None:
            p99 = sig["queueing_delay_ms"].get("p99")
            if p99 is not None and p99 > conf.slo_queue_delay_p99_ms:
                breaches.append(
                    ("queueing_delay_p99_ms", p99, conf.slo_queue_delay_p99_ms)
                )
        if conf.slo_p99_ms is not None:
            for stage, summary in sig["stage_latency_ms"].items():
                p99 = summary.get("p99")
                if p99 is not None and p99 > conf.slo_p99_ms:
                    breaches.append(
                        (f"stage_latency_p99_ms.{stage}", p99, conf.slo_p99_ms)
                    )
        for signal_name, value, threshold in breaches:
            record = {
                "t": now,
                "signal": signal_name,
                "value": value,
                "threshold": threshold,
            }
            with self._lock:
                if len(self.violations) < _MAX_VIOLATIONS:
                    self.violations.append(record)
            if self._driver_metrics is not None:
                self._driver_metrics.counter(COUNT_SLO_VIOLATIONS).add(1)
            self.tracer.instant(
                EVENT_SLO_VIOLATION,
                actor=DRIVER_TIMELINE,
                signal=signal_name,
                value=round(value, 3),
                threshold=threshold,
            )
            log.warning(
                "SLO violation: %s = %.3f ms exceeds threshold %.3f ms",
                signal_name,
                value,
                threshold,
            )
