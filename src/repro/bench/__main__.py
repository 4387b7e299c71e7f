"""Run every reproduced experiment and print (or write) the results.

    python -m repro.bench                 # print all experiment tables
    python -m repro.bench --markdown out.md   # write EXPERIMENTS-style report
    python -m repro.bench --only fig4a fig7   # subset
    python -m repro.bench --json outdir       # BENCH_<name>.json per experiment

Each experiment mirrors one table/figure of the paper's §5; the paper's
reported numbers are quoted alongside so the shapes can be compared at a
glance.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Tuple

from repro.bench.figures import (
    ablation_pipelined,
    ablation_treereduce,
    elastic_adaptation,
    executor_backend_comparison,
    fig4a_group_scheduling,
    fig4b_breakdown,
    fig5a_heavy_compute,
    fig5b_prescheduling,
    fig7_fault_tolerance,
    fig9_workload_comparison,
    group_tuning_trace,
    table2_query_analysis,
    telemetry_overhead,
    throughput_vs_latency,
    transport_coordination,
    yahoo_latency_cdf,
)
from repro.bench.reporting import (
    diff_against_baseline,
    load_baseline_rows,
    render_cdf,
    render_table,
    write_bench_json,
)
from repro.common.metrics import MetricsRegistry
from repro.sim.elasticity import group_size_adaptation_sweep
from repro.workloads.queries import TABLE2_DISTRIBUTION


# Experiments that want structured rows in their BENCH_<name>.json (not
# just the rendered table) deposit them here keyed by experiment id.
_STRUCTURED_ROWS: dict = {}
# Cluster-telemetry rollup captured by the telemetry experiment, embedded
# into its BENCH json (see write_bench_json's telemetry parameter).
_TELEMETRY_SNAPSHOTS: dict = {}


def _fig4a() -> str:
    rows = fig4a_group_scheduling()
    return render_table(
        ["machines", "spark_ms", "g25_ms", "g50_ms", "g100_ms", "speedup_g100"],
        [[r["machines"], r["spark_ms"], r["drizzle_g25_ms"], r["drizzle_g50_ms"],
          r["drizzle_g100_ms"], r["speedup_g100"]] for r in rows],
        title="Fig 4a — single-stage weak scaling (paper: Spark ~195ms @128; "
              "Drizzle g=100 <5ms; speedups 7-46x)",
    )


def _fig4b() -> str:
    rows = fig4b_breakdown()
    return render_table(
        ["system", "sched_delay_ms/task", "transfer_ms/task", "compute_ms/task"],
        [[r["system"], r["scheduler_delay_ms"], r["task_transfer_ms"],
          r["compute_ms"]] for r in rows],
        title="Fig 4b — per-task breakdown @128 machines",
    )


def _fig5a() -> str:
    rows = fig5a_heavy_compute()
    return render_table(
        ["machines", "spark_ms", "g25_ms", "g100_ms", "g25_vs_g100_gap_ms"],
        [[r["machines"], r["spark_ms"], r["drizzle_g25_ms"],
          r["drizzle_g100_ms"], r["g25_vs_g100_gap_ms"]] for r in rows],
        title="Fig 5a — 100x data per task (paper: g=25 captures most benefit)",
    )


def _fig5b() -> str:
    rows = fig5b_prescheduling()
    return render_table(
        ["machines", "spark_ms", "only_pre_ms", "pre_g10_ms", "pre_g100_ms",
         "speedup"],
        [[r["machines"], r["spark_ms"], r["only_pre_ms"], r["pre_g10_ms"],
          r["pre_g100_ms"], r["speedup_g100"]] for r in rows],
        title="Fig 5b — two-stage with shuffle (paper: 2.7-5.5x; pre-sched "
              "alone ~20ms @128; Drizzle ~45ms @128)",
    )


def _fig6a() -> str:
    series = yahoo_latency_cdf(optimized=False)
    return render_cdf(
        series,
        title="Fig 6a — Yahoo latency CDF, 20M ev/s, unoptimized "
              "(paper: Drizzle ~350ms ~= Flink; 3.6x < Spark)",
    )


def _fig6b() -> str:
    rows = throughput_vs_latency(optimized=False, targets_s=(0.25, 0.5, 1.0, 2.0))
    return render_table(
        ["target_ms", "drizzle_Mev/s", "spark_Mev/s", "flink_Mev/s"],
        [[r["latency_target_ms"], r["drizzle_Mev_s"], r["spark_Mev_s"],
          r["flink_Mev_s"]] for r in rows],
        title="Fig 6b — max throughput at latency target, unoptimized "
              "(paper: Spark crashes @250ms; Drizzle/Flink ~20M)",
    )


def _fig7() -> str:
    results = fig7_fault_tolerance()
    return render_table(
        ["system", "normal_median_ms", "spike_s", "windows_disrupted",
         "recovery_time_s"],
        [[r.system, r.normal_median_s * 1e3, r.spike_s, r.windows_disrupted,
          r.recovery_time_s] for r in results],
        title="Fig 7 — machine killed at t=240s (paper: Drizzle ~1s/1 window; "
              "Spark ~3x/1 window; Flink ~18s/~4 windows)",
    )


def _fig8a() -> str:
    series = yahoo_latency_cdf(optimized=True)
    return render_cdf(
        series,
        title="Fig 8a — latency CDF with §3.5 optimizations, 10M ev/s "
              "(paper: Drizzle <100ms; 2x < Spark; 3x < Flink)",
    )


def _fig8b() -> str:
    rows = throughput_vs_latency(optimized=True, targets_s=(0.1, 0.25, 0.5))
    return render_table(
        ["target_ms", "drizzle_Mev/s", "spark_Mev/s", "flink_Mev/s"],
        [[r["latency_target_ms"], r["drizzle_Mev_s"], r["spark_Mev_s"],
          r["flink_Mev_s"]] for r in rows],
        title="Fig 8b — throughput with optimizations (paper: Spark & Flink "
              "miss 100ms; Drizzle +2-3x)",
    )


def _fig9() -> str:
    series = fig9_workload_comparison()
    return render_cdf(
        series,
        title="Fig 9 — Drizzle: Yahoo vs video analytics (paper: similar "
              "medians; video p95 ~780ms vs ~480ms)",
    )


def _table2() -> str:
    out = table2_query_analysis(num_queries=900_000)
    return render_table(
        ["aggregate", "measured_pct", "paper_pct"],
        [[c, out["percentages"][c], TABLE2_DISTRIBUTION[c]]
         for c in TABLE2_DISTRIBUTION],
        title=f"Table 2 — 900k-query aggregation breakdown (agg fraction "
              f"{out['aggregation_fraction']:.1%}, partial-merge "
              f"{out['partial_merge_fraction']:.1%}; paper: ~25% / >95%)",
    )


def _tuning() -> str:
    rows = group_tuning_trace()
    sampled = [rows[i] for i in (0, 20, 79, 90, 120, 159, 170, 200, 239)]
    return render_table(
        ["step", "machines", "group_size", "overhead", "action"],
        [[r["step"], r["machines"], r["group_size"], r["overhead"], r["action"]]
         for r in sampled],
        title="§3.4 — AIMD group-size tuning across cluster resizes "
              "(16 -> 128 -> 16 machines)",
    )


def _pipelined() -> str:
    rows = ablation_pipelined()
    return render_table(
        ["machines", "spark_ms", "pipelined_ms", "drizzle_g100_ms"],
        [[r["machines"], r["spark_ms"], r["pipelined_ms"], r["drizzle_g100_ms"]]
         for r in rows],
        title="§3.6 ablation — pipelined scheduling (paper: insufficient "
              "once t_sched > t_exec)",
    )


def _treereduce() -> str:
    rows = [ablation_treereduce(num_maps=n, fan_in=2) for n in (16, 64, 256)]
    return render_table(
        ["num_maps", "activation_all_to_all", "activation_tree", "speedup"],
        [[r["num_maps"], r["mean_activation_all_to_all"],
          r["mean_activation_tree"], r["speedup"]] for r in rows],
        title="§3.6 ablation — tree-reduce-aware pre-scheduling dependency sets",
    )


def _executors() -> str:
    rows = executor_backend_comparison()
    return render_table(
        ["backend", "cpu_count", "wall_s", "records_per_s", "speedup_vs_thread"],
        [[r["backend"], r["cpu_count"], r["wall_s"], r["records_per_s"],
          r["speedup_vs_thread"]] for r in rows],
        title="Executor backends — CPU-bound map on the real engine "
              "(process escapes the GIL on multi-core hosts)",
    )


def _transport() -> str:
    rows = transport_coordination()
    _STRUCTURED_ROWS["transport"] = rows
    return render_table(
        ["transport", "group_size", "ms_per_batch", "rpc_messages",
         "bytes_sent", "bytes_received", "fetch_batches", "buckets/fetch",
         "rpc_p50_ms", "rpc_p95_ms"],
        [[r["transport"], r["group_size"], r["ms_per_batch"], r["rpc_messages"],
          r["bytes_sent"], r["bytes_received"], r["fetch_batches"],
          r["buckets_per_fetch"], r["rpc_p50_ms"], r["rpc_p95_ms"]]
         for r in rows],
        title="Transport backends — real sockets vs in-process calls on the "
              "engine (group scheduling amortizes the wire cost, §3.1; "
              "fetches batched per peer, stage blobs shipped once)",
    )


def _telemetry() -> str:
    rows, snapshot = telemetry_overhead()
    _STRUCTURED_ROWS["telemetry"] = rows
    if snapshot:
        _TELEMETRY_SNAPSHOTS["telemetry"] = snapshot
    return render_table(
        ["transport", "telemetry", "group_size", "ms_per_batch",
         "overhead_ratio", "rpc_messages", "deltas_ingested"],
        [[r["transport"], r["telemetry"], r["group_size"], r["ms_per_batch"],
          r["overhead_ratio"], r["rpc_messages"], r["deltas_ingested"]]
         for r in rows],
        title="Live telemetry plane — ms_per_batch with TelemetryConf "
              "enabled vs disabled on the transport bench (shipping on "
              "the dedicated __metrics__ path; rpc_messages unchanged "
              "by design)",
    )


def _elastic() -> str:
    rows = elastic_adaptation()
    _STRUCTURED_ROWS["elastic"] = rows
    return render_table(
        ["group_size", "first_resized_batch", "adaptation_delay_s",
         "sim_delay_s", "delay_matches_sim", "resizes", "identical_to_fixed"],
        [[r["group_size"], r["first_resized_batch"], r["adaptation_delay_s"],
          r["sim_delay_s"], r["delay_matches_sim"], r["resizes"],
          r["identical_to_fixed"]] for r in rows],
        title="§3.3 — live autoscaling on the real engine under a load "
              "spike: adaptation delay grows with group size exactly as "
              "sim/elasticity.py predicts; resized results byte-identical "
              "to the fixed-size run",
    )


def _adaptability() -> str:
    rows = group_size_adaptation_sweep()
    return render_table(
        ["group_size", "adaptation_delay_s", "post_resize_spike_s",
         "steady_median_s"],
        [[r["group_size"], r["adaptation_delay_s"], r["post_resize_spike_s"],
          r["normal_median_s"]] for r in rows],
        title="§3.3 ablation — group size vs adaptability under a resize",
    )


EXPERIMENTS: List[Tuple[str, Callable[[], str]]] = [
    ("table2", _table2),
    ("fig4a", _fig4a),
    ("fig4b", _fig4b),
    ("fig5a", _fig5a),
    ("fig5b", _fig5b),
    ("fig6a", _fig6a),
    ("fig6b", _fig6b),
    ("fig7", _fig7),
    ("fig8a", _fig8a),
    ("fig8b", _fig8b),
    ("fig9", _fig9),
    ("tuning", _tuning),
    ("ablation-pipelined", _pipelined),
    ("ablation-treereduce", _treereduce),
    ("ablation-adaptability", _adaptability),
    ("elastic", _elastic),
    ("executors", _executors),
    ("transport", _transport),
    ("telemetry", _telemetry),
]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate every reproduced table/figure of the paper.",
    )
    parser.add_argument("experiments", nargs="*", default=[],
                        help="experiment ids to run (default: all)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="experiment ids to run (default: all)")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="also write the report as markdown to PATH")
    parser.add_argument("--json", metavar="DIR", nargs="?", const=".",
                        default=None, dest="json_dir",
                        help="also write BENCH_<name>.json (report + metric "
                             "snapshot) per experiment into DIR (default: .)")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="diff ms_per_batch of structured-row experiments "
                             "against an earlier run's BENCH_<name>.json files (PATH "
                             "is a file or a directory) and print regressions")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    args = parser.parse_args(argv)
    # Positional ids and --only are the same filter, merged.
    args.only = (args.only or []) + args.experiments or None

    known = {name for name, _fn in EXPERIMENTS}
    if args.list:
        print("\n".join(sorted(known)))
        return 0
    if args.only:
        unknown = set(args.only) - known
        if unknown:
            parser.error(f"unknown experiments: {sorted(unknown)}")

    if args.json_dir:
        os.makedirs(args.json_dir, exist_ok=True)
    registry = MetricsRegistry()
    sections: List[str] = []
    for name, fn in EXPERIMENTS:
        if args.only and name not in args.only:
            continue
        print(f"[{name}] running...", file=sys.stderr)
        # timed() feeds both the counter and a same-named histogram, so
        # the JSON snapshot carries per-experiment wall-time percentiles.
        with registry.timed(f"bench.{name}"):
            section = fn()
        if args.baseline and name in _STRUCTURED_ROWS:
            baseline_rows = load_baseline_rows(name, args.baseline)
            if baseline_rows is None:
                section += f"\nno baseline rows for {name} at {args.baseline}"
            else:
                diff, regressions = diff_against_baseline(
                    _STRUCTURED_ROWS[name], baseline_rows
                )
                section += "\n" + diff
                if regressions:
                    print(
                        f"[{name}] {regressions} regression(s) vs baseline",
                        file=sys.stderr,
                    )
        sections.append(section)
        if args.json_dir:
            payload = {"report": section}
            if name in _STRUCTURED_ROWS:
                payload["rows"] = _STRUCTURED_ROWS[name]
            path = write_bench_json(
                name,
                payload,
                metrics=registry,
                out_dir=args.json_dir,
                telemetry=_TELEMETRY_SNAPSHOTS.get(name),
            )
            print(f"[{name}] wrote {path}", file=sys.stderr)
    report = "\n\n".join(sections)
    print(report)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("# Reproduced experiments\n\n```\n" + report + "\n```\n")
        print(f"\nwrote {args.markdown}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
