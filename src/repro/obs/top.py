"""`python -m repro.obs top` — a live cluster dashboard.

Renders :class:`~repro.obs.live.ClusterTelemetry` rollups and health
signals as a refreshing terminal view: cluster-wide signal summary,
per-worker counter rollups with staleness and fault annotations, and
per-stage latency percentiles.  ``--once`` renders a single frame and
exits (what tests and CI use); the default loops until interrupted.

The CLI drives a self-contained demo workload (streaming wordcount on a
:class:`LocalCluster`, see :func:`demo_cluster`) because a dashboard with
nothing to watch teaches nothing; embedders render their own cluster with
:func:`render_dashboard` directly.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.config import (
    EngineConf,
    ExecutorConf,
    MonitorConf,
    TelemetryConf,
    TransportConf,
)
from repro.common.metrics import (
    COUNT_NET_BYTES_RECEIVED,
    COUNT_NET_BYTES_SENT,
    COUNT_NET_FRAMES_SENT,
    COUNT_RPC_MESSAGES,
    HIST_NET_MESSAGES_PER_FRAME,
)
from repro.obs.live import DRIVER_TIMELINE, ClusterTelemetry

# Counters surfaced in the per-worker table, in display order.
_WORKER_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("telemetry.tasks", "tasks"),
    ("telemetry.records", "records"),
)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 100 else f"{value:.2f}"
    return str(value)


def _fmt_summary_ms(summary: Dict[str, float]) -> str:
    if not summary or not summary.get("count"):
        return "-"
    return (
        f"p50={summary['p50']:.2f} p99={summary['p99']:.2f} "
        f"max={summary['max']:.2f} (n={int(summary['count'])})"
    )


def _table(headers: List[str], rows: List[List[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: List[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rows)
    return out


def render_dashboard(telemetry: ClusterTelemetry) -> str:
    """One frame of the dashboard as a plain string (no cursor control:
    the caller decides whether to clear the screen between frames)."""
    rollup = telemetry.rollup(include_stale=True)
    signals = telemetry.signals()
    lines: List[str] = []

    live = signals["live_workers"]
    stale = signals["stale_workers"]
    lines.append(
        f"repro.obs top — {len(live)} live / {len(stale)} stale worker(s), "
        f"window {signals['window_s']:g}s"
    )
    lines.append("")

    coord = signals["coordination"]
    slo = signals["slo"]
    lines.extend(
        [
            "cluster signals",
            f"  tasks/s            {signals['tasks_per_s']:.1f}",
            f"  records/s          {signals['records_per_s']:.1f}",
            f"  queueing delay ms  {_fmt_summary_ms(signals['queueing_delay_ms'])}",
            f"  batch wall ms      {_fmt_summary_ms(signals['batch_wall_ms'])}",
            f"  worker backlog     {signals['backlog']:g}"
            f"   stream backlog {signals['streaming_backlog']:g}",
            f"  coordination       {coord['coordination_s']:.3f}s"
            f" / {coord['wall_s']:.3f}s wall"
            f" (overhead {coord['overhead']:.1%})",
            f"  slo violations     {slo['violations']}"
            + (
                f"   last: {slo['last']['signal']} {slo['last']['value']:.2f}"
                f" > {slo['last']['threshold']:g}"
                if slo["last"]
                else ""
            ),
        ]
    )
    rates = signals["fault_rates_per_s"]
    if any(rates.values()):
        lines.append(
            "  fault rates /s     "
            + "  ".join(f"{k[:-6]}={v:.2f}" for k, v in sorted(rates.items()) if v)
        )
    # Control-plane WAL health (repro.ha): shown only when HA is armed —
    # the driver registry carries ha.* counters then.
    driver_state = rollup["workers"].get(DRIVER_TIMELINE) or {}
    ha_counters = {
        k: v
        for k, v in (driver_state.get("counters") or {}).items()
        if k.startswith("ha.")
    }
    if ha_counters:
        lines.append(
            "  ha wal             "
            f"appends={ha_counters.get('ha.wal_appends', 0):g}"
            f" fsyncs={ha_counters.get('ha.wal_fsyncs', 0):g}"
            f" snapshots={ha_counters.get('ha.wal_snapshots', 0):g}"
            f" replays={ha_counters.get('ha.wal_replays', 0):g}"
            f" fenced={ha_counters.get('ha.fenced', 0):g}"
        )
    # The wire (tcp transport only): logical engine messages against the
    # request frames that carried them, and how full one-way frames run.
    net_counters = driver_state.get("counters") or {}
    frames = net_counters.get(COUNT_NET_FRAMES_SENT, 0)
    if frames:
        per_frame = (driver_state.get("histograms") or {}).get(
            HIST_NET_MESSAGES_PER_FRAME
        ) or {}
        wire_bytes = net_counters.get(COUNT_NET_BYTES_SENT, 0) + net_counters.get(
            COUNT_NET_BYTES_RECEIVED, 0
        )
        lines.append(
            "  net                "
            f"messages={net_counters.get(COUNT_RPC_MESSAGES, 0):g}"
            f" frames={frames:g}"
            f" bytes={wire_bytes:g}"
            + (
                f" one-way msgs/frame mean={per_frame['mean']:.1f}"
                f" max={per_frame['max']:g}"
                if per_frame.get("count")
                else ""
            )
        )
    lines.append("")

    lines.append("workers")
    rows: List[List[str]] = []
    for worker_id, state in rollup["workers"].items():
        if worker_id == DRIVER_TIMELINE:
            continue
        qd = state["histograms"].get("telemetry.queue_delay") or {}
        status = "STALE" if state["stale"] else "live"
        if state["faults"]:
            last_fault = state["faults"][-1]
            status += f" ({last_fault['kind']})"
        rows.append(
            [
                worker_id,
                status,
                f"{state['age_s']:.1f}s",
                *(_fmt(state["counters"].get(name, 0)) for name, _ in _WORKER_COLUMNS),
                _fmt(state["gauges"].get("telemetry.backlog", 0)),
                f"{qd['p99'] * 1000:.2f}" if qd.get("count") else "-",
                str(len(state["faults"])),
            ]
        )
    headers = (
        ["worker", "state", "age"]
        + [label for _, label in _WORKER_COLUMNS]
        + ["backlog", "qd p99 ms", "faults"]
    )
    lines.extend(_table(headers, rows) if rows else ["  (no workers reported yet)"])
    lines.append("")

    stage_rows = [
        [f"stage {stage}", _fmt_summary_ms(summary)]
        for stage, summary in signals["stage_latency_ms"].items()
    ]
    if stage_rows:
        lines.append("per-stage task latency")
        lines.extend(_table(["stage", "latency ms"], stage_rows))

    # Membership churn: one line per worker join/leave/loss, newest last,
    # with the controller's (or failure detector's) reason.
    events = rollup.get("scale_events") or []
    if events:
        lines.append("")
        lines.append("scale events")
        t0 = events[0]["t"]
        for event in events[-10:]:
            reason = f" — {event['reason']}" if event.get("reason") else ""
            lines.append(
                f"  +{event['t'] - t0:7.2f}s {event['action']:<5} "
                f"{event['worker']}{reason}"
            )
    return "\n".join(lines)


@contextlib.contextmanager
def demo_cluster(
    transport: str = "inproc",
    executor: str = "thread",
    workers: int = 2,
    batches: int = 8,
    heartbeats: bool = True,
    slo_p99_ms: Optional[float] = None,
) -> Iterator[Any]:
    """A LocalCluster running a streaming wordcount in a background
    thread, telemetry armed — the workload behind ``top``/``serve``.
    Yields the cluster; the workload thread is joined on exit."""
    from repro.engine.cluster import LocalCluster
    from repro.streaming.context import StreamingContext
    from repro.streaming.sources import FixedBatchSource

    conf = EngineConf(
        num_workers=workers,
        transport=TransportConf(backend=transport),
        executor=ExecutorConf(backend=executor),
        monitor=MonitorConf(
            enable_heartbeats=heartbeats,
            heartbeat_interval_s=0.02,
            heartbeat_timeout_s=2.0,
        ),
        telemetry=TelemetryConf(
            enabled=True, interval_s=0.02, slo_p99_ms=slo_p99_ms
        ),
    )
    words = ["drizzle", "spark", "group", "schedule", "batch", "stream"]
    data = [
        [words[(i + j) % len(words)] for j in range(48)] for i in range(batches)
    ]
    with LocalCluster(conf) as cluster:
        ctx = StreamingContext(cluster, FixedBatchSource(data, 4))
        store = ctx.state_store("counts")
        ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
            lambda a, b: a + b, 3
        ).update_state(store, merge=lambda a, b: a + b)
        runner = threading.Thread(
            target=ctx.run_batches, args=(batches,), name="obs-demo", daemon=True
        )
        runner.start()
        try:
            yield cluster
        finally:
            runner.join(timeout=60)


def run_top(
    telemetry: ClusterTelemetry,
    once: bool = False,
    interval_s: float = 0.5,
    frames: Optional[int] = None,
    echo=print,
    stop: Optional[threading.Event] = None,
) -> int:
    """Render loop.  ``once`` (or ``frames``) bounds iterations; the
    interactive path clears the screen with ANSI codes between frames."""
    stop = stop or threading.Event()
    rendered = 0
    while True:
        frame = render_dashboard(telemetry)
        if once or frames is not None:
            echo(frame)
        else:
            echo("\x1b[2J\x1b[H" + frame)
        rendered += 1
        if once or (frames is not None and rendered >= frames):
            return 0
        if stop.wait(interval_s):
            return 0
