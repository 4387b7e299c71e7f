"""Trace-analysis and live-telemetry CLI.

    python -m repro.obs summarize trace.json        # per-phase / per-batch / per-worker
    python -m repro.obs tree trace.jsonl            # ASCII span trees
    python -m repro.obs tree trace.json --trace t7  # one trace only
    python -m repro.obs convert trace.jsonl -o trace.json   # JSONL -> Perfetto
    python -m repro.obs top                          # live cluster dashboard
    python -m repro.obs top --once --transport tcp   # one frame, then exit
    python -m repro.obs serve --snapshot out.json    # rollups as JSON (HTTP/file)

Trace commands accept either export format (Perfetto ``trace_event`` JSON
or JSONL); the format is auto-detected.  ``summarize`` prints the
Fig. 4(b) scheduling / transfer / compute decomposition computed from
real spans.  ``top`` and ``serve`` drive a demo streaming wordcount on a
:class:`LocalCluster` and surface its live telemetry (see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.obs.analyze import render_tree, summarize
from repro.obs.export import load_trace, write_jsonl, write_perfetto


def _run_live(args: argparse.Namespace) -> int:
    """top/serve: spin up the demo cluster, surface its telemetry."""
    import time

    from repro.obs.serve import TelemetryHTTPServer, write_snapshot
    from repro.obs.top import demo_cluster, run_top

    with demo_cluster(
        transport=args.transport,
        executor=args.executor,
        workers=args.workers,
        batches=args.batches,
        heartbeats=not args.no_heartbeats,
        slo_p99_ms=getattr(args, "slo_p99_ms", None),
    ) as cluster:
        telemetry = cluster.telemetry
        if args.command == "top":
            # Let the first task-bearing deltas land so --once has
            # something to show (live workers alone can predate work).
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                rollup = telemetry.rollup()
                if rollup["cluster"]["counters"].get("telemetry.tasks"):
                    break
                time.sleep(0.05)
            try:
                return run_top(telemetry, once=args.once, interval_s=args.interval)
            except KeyboardInterrupt:
                return 0
        # serve
        if args.snapshot is not None:
            # File mode: wait for the demo workload to finish so the
            # snapshot is a complete record (CI artifact), then dump.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                sig = telemetry.signals()
                if (
                    sig["streaming_backlog"] == 0
                    and sig["queueing_delay_ms"].get("count")
                ):
                    break
                time.sleep(0.05)
            write_snapshot(telemetry, args.snapshot)
            print(f"wrote telemetry snapshot to {args.snapshot}")
            return 0
        with TelemetryHTTPServer(telemetry, port=args.port) as server:
            print(f"serving telemetry on {server.url} (Ctrl-C to stop)")
            try:
                if args.duration is not None:
                    time.sleep(args.duration)
                else:
                    while True:
                        time.sleep(3600)
            except KeyboardInterrupt:
                pass
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze and convert engine traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="per-phase latency breakdowns")
    p_sum.add_argument("trace", help="trace file (Perfetto JSON or JSONL)")

    p_tree = sub.add_parser("tree", help="print span trees")
    p_tree.add_argument("trace", help="trace file (Perfetto JSON or JSONL)")
    p_tree.add_argument("--trace-id", default=None, help="only this trace id")

    p_conv = sub.add_parser("convert", help="convert between trace formats")
    p_conv.add_argument("trace", help="input trace file")
    p_conv.add_argument("-o", "--output", required=True, help="output path")
    p_conv.add_argument(
        "--format",
        choices=("perfetto", "jsonl"),
        default="perfetto",
        help="output format (default: perfetto)",
    )

    def add_cluster_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--transport", choices=("inproc", "tcp"), default="inproc")
        p.add_argument("--executor", choices=("inline", "thread", "process"), default="thread")
        p.add_argument("--workers", type=int, default=2)
        p.add_argument("--batches", type=int, default=8, help="demo micro-batches")
        p.add_argument(
            "--no-heartbeats",
            action="store_true",
            help="run without the heartbeat failure detector",
        )

    p_top = sub.add_parser("top", help="live cluster telemetry dashboard")
    add_cluster_args(p_top)
    p_top.add_argument("--once", action="store_true", help="one frame, then exit")
    p_top.add_argument("--interval", type=float, default=0.5, help="refresh seconds")
    p_top.add_argument("--slo-p99-ms", type=float, default=None, help="stage-latency SLO")

    p_serve = sub.add_parser("serve", help="serve telemetry rollups as JSON")
    add_cluster_args(p_serve)
    p_serve.add_argument("--port", type=int, default=0, help="port (0 = ephemeral)")
    p_serve.add_argument(
        "--snapshot", default=None, help="write one JSON snapshot to PATH and exit"
    )
    p_serve.add_argument(
        "--duration", type=float, default=None, help="serve for N seconds, then exit"
    )

    args = parser.parse_args(argv)

    if args.command in ("top", "serve"):
        return _run_live(args)
    try:
        events = load_trace(args.trace)
    except OSError as exc:
        print(f"cannot read trace: {exc}")
        return 1
    except ValueError as exc:  # includes json.JSONDecodeError
        print(f"not a trace file (expected Perfetto JSON or JSONL): {exc}")
        return 1
    if not events:
        print("trace is empty")
        return 1

    if args.command == "summarize":
        print(summarize(events))
    elif args.command == "tree":
        print(render_tree(events, trace_id=args.trace_id))
    elif args.command == "convert":
        if args.format == "perfetto":
            write_perfetto(events, args.output)
        else:
            write_jsonl(events, args.output)
        print(f"wrote {len(events)} events to {args.output}")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # Piping into e.g. ``head`` closes stdout early; exit quietly
        # (and keep the interpreter's shutdown flush from re-raising).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
