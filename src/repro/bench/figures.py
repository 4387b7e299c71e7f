"""Experiment definitions — one function per paper table/figure.

Each function runs the simulation (or corpus analysis) behind one figure
or table of §5 and returns structured rows; ``benchmarks/`` calls these
and prints them via :mod:`repro.bench.reporting`.  EXPERIMENTS.md records
the paper-reported values next to the outputs of these functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import TunerConf
from repro.core.groups import GroupObservation
from repro.core.tuner import GroupSizeTuner
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.microbench import MicroBenchConfig, run_microbenchmark
from repro.sim.streaming import (
    SystemConfig,
    max_throughput,
    simulate_stream,
)
from repro.workloads.profiles import VIDEO, YAHOO
from repro.workloads.queries import QueryCorpusGenerator, WorkloadAnalyzer

MACHINE_SWEEP = (4, 8, 16, 32, 64, 128)
YAHOO_RATE = 20e6
YAHOO_RATE_OPTIMIZED = 10e6
VIDEO_RATE = 7.5e6


# ----------------------------------------------------------------------
# Figure 4(a): single-stage weak scaling, group scheduling
# ----------------------------------------------------------------------
def fig4a_group_scheduling(
    machine_counts: Sequence[int] = MACHINE_SWEEP,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> List[Dict]:
    rows = []
    for machines in machine_counts:
        row: Dict = {"machines": machines}
        spark = run_microbenchmark(
            MicroBenchConfig(mode="spark", machines=machines), cost=cost
        )
        row["spark_ms"] = spark.time_per_batch_s * 1e3
        for g in (25, 50, 100):
            drizzle = run_microbenchmark(
                MicroBenchConfig(mode="drizzle", machines=machines, group_size=g),
                cost=cost,
            )
            row[f"drizzle_g{g}_ms"] = drizzle.time_per_batch_s * 1e3
        row["speedup_g100"] = row["spark_ms"] / row["drizzle_g100_ms"]
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 4(b): per-task time breakdown at 128 machines
# ----------------------------------------------------------------------
def fig4b_breakdown(
    machines: int = 128, cost: CostModel = DEFAULT_COST_MODEL
) -> List[Dict]:
    rows = []
    configs = [
        ("Spark", MicroBenchConfig(mode="spark", machines=machines)),
        (
            "Drizzle, Group=100",
            MicroBenchConfig(mode="drizzle", machines=machines, group_size=100),
        ),
    ]
    for name, config in configs:
        r = run_microbenchmark(config, cost=cost)
        rows.append(
            {
                "system": name,
                "scheduler_delay_ms": r.scheduler_delay_per_task_s * 1e3,
                "task_transfer_ms": r.task_transfer_per_task_s * 1e3,
                "compute_ms": r.compute_per_task_s * 1e3,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 5(a): weak scaling with 100x the data per task
# ----------------------------------------------------------------------
def fig5a_heavy_compute(
    machine_counts: Sequence[int] = MACHINE_SWEEP,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> List[Dict]:
    rows = []
    heavy = 90e-3  # 100x the Fig. 4(a) per-task compute
    for machines in machine_counts:
        row: Dict = {"machines": machines}
        spark = run_microbenchmark(
            MicroBenchConfig(mode="spark", machines=machines, task_compute_s=heavy),
            cost=cost,
        )
        row["spark_ms"] = spark.time_per_batch_s * 1e3
        for g in (25, 50, 100):
            r = run_microbenchmark(
                MicroBenchConfig(
                    mode="drizzle",
                    machines=machines,
                    group_size=g,
                    task_compute_s=heavy,
                ),
                cost=cost,
            )
            row[f"drizzle_g{g}_ms"] = r.time_per_batch_s * 1e3
        row["g25_vs_g100_gap_ms"] = row["drizzle_g25_ms"] - row["drizzle_g100_ms"]
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 5(b): pre-scheduling with a shuffle stage (16 reducers)
# ----------------------------------------------------------------------
def fig5b_prescheduling(
    machine_counts: Sequence[int] = MACHINE_SWEEP,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> List[Dict]:
    rows = []
    for machines in machine_counts:
        row: Dict = {"machines": machines}
        variants = [
            ("spark_ms", MicroBenchConfig(mode="spark", machines=machines, num_reducers=16)),
            (
                "only_pre_ms",
                MicroBenchConfig(mode="only-pre", machines=machines, num_reducers=16),
            ),
            (
                "pre_g10_ms",
                MicroBenchConfig(
                    mode="drizzle", machines=machines, group_size=10, num_reducers=16
                ),
            ),
            (
                "pre_g100_ms",
                MicroBenchConfig(
                    mode="drizzle", machines=machines, group_size=100, num_reducers=16
                ),
            ),
        ]
        for key, config in variants:
            row[key] = run_microbenchmark(config, cost=cost).time_per_batch_s * 1e3
        row["speedup_g100"] = row["spark_ms"] / row["pre_g100_ms"]
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figures 6(a)/8(a)/9: Yahoo/video latency CDFs
# ----------------------------------------------------------------------
def yahoo_latency_cdf(
    optimized: bool,
    rate: Optional[float] = None,
    duration_s: float = 300.0,
    seed: int = 1,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> Dict[str, List[float]]:
    """Per-system window-latency samples (seconds).  ``optimized=False``
    is Fig. 6(a) at 20M events/s; ``optimized=True`` is Fig. 8(a) at 10M
    (Flink cannot apply the combine optimization, §5.4)."""
    rate = rate or (YAHOO_RATE_OPTIMIZED if optimized else YAHOO_RATE)
    out: Dict[str, List[float]] = {}
    for kind in ("drizzle", "spark", "flink"):
        config = SystemConfig(kind=kind, optimized=optimized and kind != "flink")
        result = simulate_stream(YAHOO, config, rate, duration_s, seed=seed, cost=cost)
        out[kind] = result.latencies() if result.stable else []
    return out


def fig9_workload_comparison(
    duration_s: float = 300.0, seed: int = 3, cost: CostModel = DEFAULT_COST_MODEL
) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {}
    yahoo = simulate_stream(
        YAHOO, SystemConfig(kind="drizzle"), YAHOO_RATE, duration_s, seed=seed, cost=cost
    )
    video = simulate_stream(
        VIDEO, SystemConfig(kind="drizzle"), VIDEO_RATE, duration_s, seed=seed, cost=cost
    )
    out["drizzle_yahoo"] = yahoo.latencies()
    out["drizzle_video"] = video.latencies()
    return out


# ----------------------------------------------------------------------
# Figures 6(b)/8(b): max throughput at a latency target
# ----------------------------------------------------------------------
def throughput_vs_latency(
    optimized: bool,
    targets_s: Sequence[float] = (0.1, 0.25, 0.5, 1.0, 2.0),
    cost: CostModel = DEFAULT_COST_MODEL,
) -> List[Dict]:
    rows = []
    for target in targets_s:
        row: Dict = {"latency_target_ms": target * 1e3}
        for kind in ("drizzle", "spark", "flink"):
            config = SystemConfig(kind=kind, optimized=optimized and kind != "flink")
            row[f"{kind}_Mev_s"] = max_throughput(YAHOO, config, target, cost=cost) / 1e6
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 7: fault tolerance timeline (machine killed at t=240 s)
# ----------------------------------------------------------------------
@dataclass
class FaultToleranceResult:
    system: str
    normal_median_s: float
    spike_s: float
    windows_disrupted: int
    recovery_time_s: float
    timeline: List[Tuple[float, float]]  # (window_end, latency)


def fig7_fault_tolerance(
    failure_at_s: float = 240.0,
    duration_s: float = 400.0,
    seed: int = 2,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> List[FaultToleranceResult]:
    out = []
    for kind in ("drizzle", "spark", "flink"):
        result = simulate_stream(
            YAHOO,
            SystemConfig(kind=kind),
            YAHOO_RATE,
            duration_s,
            seed=seed,
            cost=cost,
            failure_at_s=failure_at_s,
        )
        normal = result.normal_median_latency_s
        post = [w for w in result.window_latencies if w.window_end_s >= failure_at_s]
        disrupted = [w for w in post if w.latency_s > 2.0 * normal]
        spike = max((w.latency_s for w in post), default=0.0)
        recovery_time = 0.0
        if disrupted:
            recovery_time = max(w.window_end_s for w in disrupted) - failure_at_s
        out.append(
            FaultToleranceResult(
                system=kind,
                normal_median_s=normal,
                spike_s=spike,
                windows_disrupted=len(disrupted),
                recovery_time_s=recovery_time,
                timeline=[(w.window_end_s, w.latency_s) for w in result.window_latencies],
            )
        )
    return out


# ----------------------------------------------------------------------
# Table 2: aggregation breakdown over the synthetic 900k-query corpus
# ----------------------------------------------------------------------
def table2_query_analysis(num_queries: int = 900_000, seed: int = 0) -> Dict:
    generator = QueryCorpusGenerator(seed=seed)
    analyzer = WorkloadAnalyzer()
    result = analyzer.analyze(generator.generate(num_queries))
    return {
        "total_queries": result.total_queries,
        "aggregation_fraction": result.aggregation_fraction,
        "partial_merge_fraction": result.partial_merge_fraction,
        "percentages": result.category_percentages(),
    }


# ----------------------------------------------------------------------
# §3.4: group-size auto-tuning efficacy
# ----------------------------------------------------------------------
def group_tuning_trace(
    machines_schedule: Sequence[Tuple[int, int]] = ((80, 16), (80, 128), (80, 16)),
    exec_per_batch_s: float = 0.025,
    conf: Optional[TunerConf] = None,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> List[Dict]:
    """Drive the AIMD tuner against simulated coordination measurements.

    ``machines_schedule`` is a list of (num_groups, machines) phases: the
    cluster (and hence the coordination cost) changes between phases, and
    the tuner must re-converge so the overhead stays within bounds.
    """
    conf = conf or TunerConf(
        enabled=True, overhead_lower_bound=0.05, overhead_upper_bound=0.20
    )
    tuner = GroupSizeTuner(conf, initial_group_size=1)
    rng = random.Random(0)
    rows: List[Dict] = []
    step = 0
    for num_groups, machines in machines_schedule:
        tasks = {0: machines * 4}
        for _ in range(num_groups):
            g = tuner.group_size
            coord = cost.drizzle_group_coordination(machines, tasks, g)
            coord *= 1.0 + rng.uniform(-0.05, 0.05)
            decision = tuner.observe(
                GroupObservation(
                    first_batch=0,
                    batches=g,
                    scheduling_s=coord,
                    task_transfer_s=0.0,
                    wall_s=coord + g * exec_per_batch_s,
                    workers=machines,
                )
            )
            rows.append(
                {
                    "step": step,
                    "machines": machines,
                    "group_size": decision.new_group_size,
                    "overhead": decision.smoothed_overhead,
                    "action": decision.action,
                }
            )
            step += 1
    return rows


# ----------------------------------------------------------------------
# §3.6 ablation: pipelined scheduling vs group scheduling
# ----------------------------------------------------------------------
def ablation_pipelined(
    machine_counts: Sequence[int] = MACHINE_SWEEP,
    task_compute_s: float = 0.9e-3,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> List[Dict]:
    rows = []
    for machines in machine_counts:
        spark = run_microbenchmark(
            MicroBenchConfig(
                mode="spark", machines=machines, task_compute_s=task_compute_s
            ),
            cost=cost,
        )
        pipelined = run_microbenchmark(
            MicroBenchConfig(
                mode="pipelined", machines=machines, task_compute_s=task_compute_s
            ),
            cost=cost,
        )
        drizzle = run_microbenchmark(
            MicroBenchConfig(
                mode="drizzle",
                machines=machines,
                group_size=100,
                task_compute_s=task_compute_s,
            ),
            cost=cost,
        )
        rows.append(
            {
                "machines": machines,
                "spark_ms": spark.time_per_batch_s * 1e3,
                "pipelined_ms": pipelined.time_per_batch_s * 1e3,
                "drizzle_g100_ms": drizzle.time_per_batch_s * 1e3,
                # §3.6: pipelining is bounded by max(t_exec, t_sched), so it
                # stops helping once t_sched > t_exec at larger clusters.
                "sched_dominates": pipelined.time_per_batch_s
                > 1.5 * drizzle.time_per_batch_s,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablation: continuous-engine checkpoint interval vs recovery cost
# ----------------------------------------------------------------------
def ablation_checkpoint_interval(
    intervals_s: Sequence[float] = (5.0, 10.0, 30.0, 60.0),
    failure_at_s: float = 240.0,
    duration_s: float = 420.0,
    cost: CostModel = DEFAULT_COST_MODEL,
) -> List[Dict]:
    """§2.2's rollback-recovery trade-off, quantified: less frequent
    aligned checkpoints mean more data to replay after a failure, so the
    latency spike and catch-up time grow with the interval — while
    micro-batch parallel recovery (Drizzle) is insensitive to it."""
    rows = []
    for interval in intervals_s:
        flink = simulate_stream(
            YAHOO,
            SystemConfig(kind="flink", checkpoint_interval_s=interval),
            YAHOO_RATE,
            duration_s,
            seed=2,
            cost=cost,
            failure_at_s=failure_at_s,
        )
        post = [w for w in flink.window_latencies if w.window_end_s >= failure_at_s]
        disrupted = [
            w for w in post if w.latency_s > 2 * flink.normal_median_latency_s
        ]
        rows.append(
            {
                "checkpoint_interval_s": interval,
                "flink_spike_s": max(w.latency_s for w in post),
                "flink_windows_disrupted": len(disrupted),
            }
        )
    drizzle = simulate_stream(
        YAHOO,
        SystemConfig(kind="drizzle"),
        YAHOO_RATE,
        duration_s,
        seed=2,
        cost=cost,
        failure_at_s=failure_at_s,
    )
    post = [w for w in drizzle.window_latencies if w.window_end_s >= failure_at_s]
    for row in rows:
        row["drizzle_spike_s"] = max(w.latency_s for w in post)
    return rows


# ----------------------------------------------------------------------
# §3.6 ablation: tree-reduce-aware pre-scheduling dependency sets
# ----------------------------------------------------------------------
def ablation_treereduce(
    num_maps: int = 128,
    fan_in: int = 2,
    trials: int = 200,
    seed: int = 0,
) -> Dict:
    """How much earlier can a reduce task activate when it waits only on
    its ``fan_in`` tree parents instead of all maps?  Map finish times are
    uniform over a wave; we report mean activation times."""
    rng = random.Random(seed)
    all_to_all_first = 0.0
    tree_first = 0.0
    for _ in range(trials):
        finishes = sorted(rng.random() for _ in range(num_maps))
        all_to_all_first += finishes[-1]  # wait for every map
        # Tree reducer 0 waits on maps [0, fan_in); finish times are
        # exchangeable, so sample fan_in of them.
        sample = [rng.random() for _ in range(fan_in)]
        tree_first += max(sample)
    return {
        "num_maps": num_maps,
        "fan_in": fan_in,
        "mean_activation_all_to_all": all_to_all_first / trials,
        "mean_activation_tree": tree_first / trials,
        "speedup": (all_to_all_first / trials) / (tree_first / trials),
    }


# ----------------------------------------------------------------------
# Executor backends: real-engine throughput, thread vs process
# ----------------------------------------------------------------------
def executor_backend_comparison(
    backends: Sequence[str] = ("thread", "process"),
    workers: int = 4,
    slots: int = 2,
    records: int = 2000,
    iterations: int = 400,
) -> List[Dict]:
    """CPU-bound map on the *actual* engine under each executor backend.

    Unlike the rest of this module this is not a simulation: it drives a
    ``LocalCluster`` with ``workers * slots`` partitions of pure-Python
    arithmetic (:func:`repro.workloads.cpu_burn`).  Thread slots serialize
    on the GIL, so on a machine with >= 4 cores the process backend should
    deliver >= 2x the records/s; on fewer cores the two converge and the
    process backend additionally pays its IPC overhead.  ``cpu_count`` is
    recorded in every row so saved results stay interpretable.
    """
    import os
    import time

    from repro.common.config import EngineConf, ExecutorConf, SchedulingMode
    from repro.dag.dataset import parallelize
    from repro.engine.cluster import LocalCluster
    from repro.workloads.synthetic import cpu_burn

    partitions = workers * slots
    rows: List[Dict] = []
    for backend in backends:
        conf = EngineConf(
            num_workers=workers,
            slots_per_worker=slots,
            scheduling_mode=SchedulingMode.PER_BATCH,
            executor=ExecutorConf(backend=backend),
        )
        with LocalCluster(conf) as cluster:
            # Warm-up batch: spawns process pools and ships stage blobs so
            # the timed run measures steady-state compute, not startup.
            cluster.collect(
                parallelize(range(partitions), partitions).map(
                    lambda x: cpu_burn(x, 1)
                )
            )
            ds = parallelize(range(records), partitions).map(
                lambda x: cpu_burn(x, iterations)
            )
            start = time.perf_counter()
            out = cluster.collect(ds)
            wall_s = time.perf_counter() - start
        if len(out) != records:
            raise RuntimeError(
                f"backend {backend!r} returned {len(out)}/{records} records"
            )
        rows.append(
            {
                "backend": backend,
                "cpu_count": os.cpu_count() or 1,
                "workers": workers,
                "slots_per_worker": slots,
                "records": records,
                "iterations_per_record": iterations,
                "wall_s": wall_s,
                "records_per_s": records / wall_s,
            }
        )
    base = next((r for r in rows if r["backend"] == "thread"), rows[0])
    for row in rows:
        row["speedup_vs_thread"] = row["records_per_s"] / base["records_per_s"]
    return rows


# ----------------------------------------------------------------------
# Transport backends: real sockets vs in-process calls (repro.net)
# ----------------------------------------------------------------------
def transport_coordination(
    transports: Sequence[str] = ("inproc", "tcp"),
    group_sizes: Sequence[int] = (1, 5, 20),
    batches: int = 100,
    workers: int = 2,
    slots: int = 2,
) -> List[Dict]:
    """Fig 5-style sweep on the *actual* engine: coordination cost of the
    tcp transport vs the in-process one, with the group size on the
    x-axis.

    Every driver<->worker message on the tcp backend is framed,
    serialized, and pushed through a real loopback socket, so each batch
    pays a wire round trip per control message — the cost §3.1's group
    scheduling exists to amortize.  The in-process rows isolate the
    engine-side overhead (same message *count*, zero wire cost); the gap
    between the two, and how it shrinks as group size grows, is the
    paper's argument made measurable.  Bytes on the wire and per-call
    round-trip percentiles come from the ``net.*`` counters and the
    ``net.call_latency.*`` histograms.
    """
    import time

    from repro.common.config import EngineConf, SchedulingMode, TransportConf
    from repro.common.metrics import (
        COUNT_LAUNCH_RPCS,
        COUNT_NET_BYTES_RECEIVED,
        COUNT_NET_BYTES_SENT,
        COUNT_NET_CONNECTIONS,
        COUNT_NET_FETCH_BATCHES,
        COUNT_NET_LAUNCH_BYTES_SENT,
        COUNT_RPC_MESSAGES,
        COUNT_STAGE_CACHE_HIT,
        COUNT_STAGE_CACHE_MISS,
        HIST_NET_BUCKETS_PER_FETCH,
        HIST_NET_CALL_LATENCY,
    )
    from repro.common.stats import percentile
    from repro.dag.dataset import parallelize
    from repro.dag.plan import compile_plan, dict_action
    from repro.engine.cluster import LocalCluster

    partitions = workers * slots

    def build(b: int):
        ds = (
            parallelize(range(40), partitions)
            .map(lambda x, b=b: (x % 4, x + b))
            .reduce_by_key(lambda a, b: a + b, 2)
        )
        return compile_plan(ds, dict_action())

    def run_one(transport: str, group_size: int) -> Dict:
        conf = EngineConf(
            num_workers=workers,
            slots_per_worker=slots,
            scheduling_mode=SchedulingMode.DRIZZLE,
            group_size=group_size,
            transport=TransportConf(backend=transport),
        )
        with LocalCluster(conf) as cluster:
            # Warm-up batch: dials the connection pools and ships the
            # first closures, so the timed run measures steady state.
            cluster.run_plan(build(10_000))
            cluster.metrics.reset()
            start = time.perf_counter()
            done = 0
            groups = 0
            while done < batches:
                chunk = min(group_size, batches - done)
                cluster.run_group([build(b) for b in range(done, done + chunk)])
                done += chunk
                groups += 1
            wall_s = time.perf_counter() - start
            counters = cluster.metrics.counters_snapshot()
            latencies: List[float] = []
            for name in cluster.metrics.snapshot()["histograms"]:
                if name.startswith(HIST_NET_CALL_LATENCY + "."):
                    latencies.extend(cluster.metrics.histogram(name).snapshot())
            batch_sizes = cluster.metrics.histogram(
                HIST_NET_BUCKETS_PER_FETCH
            ).snapshot()
        fetch_batches = counters.get(COUNT_NET_FETCH_BATCHES, 0.0)
        launch_bytes = counters.get(COUNT_NET_LAUNCH_BYTES_SENT, 0.0)
        return {
            "transport": transport,
            "group_size": group_size,
            "batches": batches,
            "groups": groups,
            "wall_s": wall_s,
            "ms_per_batch": wall_s / batches * 1e3,
            "ms_per_group": wall_s / groups * 1e3,
            "rpc_messages": counters.get(COUNT_RPC_MESSAGES, 0.0),
            "launch_rpcs": counters.get(COUNT_LAUNCH_RPCS, 0.0),
            "bytes_sent": counters.get(COUNT_NET_BYTES_SENT, 0.0),
            "bytes_received": counters.get(COUNT_NET_BYTES_RECEIVED, 0.0),
            "connections": counters.get(COUNT_NET_CONNECTIONS, 0.0),
            "rpc_p50_ms": percentile(latencies, 50) * 1e3 if latencies else 0.0,
            "rpc_p95_ms": percentile(latencies, 95) * 1e3 if latencies else 0.0,
            # Data-plane fast path: batched pulls, stage-blob
            # cache traffic.
            "fetch_batches": fetch_batches,
            "buckets_per_fetch": (
                sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0
            ),
            "stage_cache_hits": counters.get(COUNT_STAGE_CACHE_HIT, 0.0),
            "stage_cache_misses": counters.get(COUNT_STAGE_CACHE_MISS, 0.0),
            # Driver-side launch bytes only.
            "launch_bytes_sent": launch_bytes,
            "launch_bytes_per_group": launch_bytes / groups if groups else 0.0,
        }

    return [
        run_one(transport, group_size)
        for transport in transports
        for group_size in group_sizes
    ]


def telemetry_overhead(
    group_size: int = 5,
    batches: int = 20,
    workers: int = 2,
    slots: int = 2,
    transport: str = "tcp",
    repeats: int = 3,
) -> Tuple[List[Dict], Dict]:
    """Cost of the live telemetry plane on the transport bench: the same
    tcp workload as :func:`transport_coordination`, with
    ``TelemetryConf`` disabled vs enabled.  Telemetry always rides the
    dedicated ``__metrics__`` path, so every delta is an extra wire
    exchange of its own.

    Returns ``(rows, snapshot)`` where ``snapshot`` is the enabled run's
    cluster-telemetry rollup + signals, embedded into ``bench --json``
    output as proof the plane saw the run it measured.
    """
    import time

    from repro.common.config import (
        EngineConf,
        SchedulingMode,
        TelemetryConf,
        TransportConf,
    )
    from repro.dag.dataset import parallelize
    from repro.dag.plan import compile_plan, dict_action
    from repro.engine.cluster import LocalCluster

    partitions = workers * slots

    def build(b: int):
        ds = (
            parallelize(range(40), partitions)
            .map(lambda x, b=b: (x % 4, x + b))
            .reduce_by_key(lambda a, b: a + b, 2)
        )
        return compile_plan(ds, dict_action())

    rows: List[Dict] = []
    snapshot: Dict = {}
    for enabled in (False, True):
        # Best-of-N: each timed region is tens of ms, so one descheduling
        # blip would otherwise dominate the enabled/disabled ratio.
        best_wall: Optional[float] = None
        counters: Dict[str, float] = {}
        for _ in range(max(repeats, 1)):
            conf = EngineConf(
                num_workers=workers,
                slots_per_worker=slots,
                scheduling_mode=SchedulingMode.DRIZZLE,
                group_size=group_size,
                transport=TransportConf(backend=transport),
                telemetry=TelemetryConf(enabled=enabled, interval_s=0.05),
            )
            with LocalCluster(conf) as cluster:
                cluster.run_plan(build(10_000))  # warm-up: pools + closures
                cluster.metrics.reset()
                start = time.perf_counter()
                done = 0
                while done < batches:
                    chunk = min(group_size, batches - done)
                    cluster.run_group(
                        [build(b) for b in range(done, done + chunk)]
                    )
                    done += chunk
                wall_s = time.perf_counter() - start
                if best_wall is None or wall_s < best_wall:
                    best_wall = wall_s
                    counters = cluster.metrics.counters_snapshot()
                if enabled and cluster.telemetry is not None:
                    # Give the 0.05s ship loop one more beat, then roll up.
                    time.sleep(0.12)
                    snapshot = {
                        "rollup": cluster.telemetry.rollup(include_stale=True),
                        "signals": cluster.telemetry.signals(),
                    }
        rows.append(
            {
                "transport": transport,
                "telemetry": "enabled" if enabled else "disabled",
                "group_size": group_size,
                "batches": batches,
                "wall_s": best_wall or 0.0,
                "ms_per_batch": (best_wall or 0.0) / batches * 1e3,
                "rpc_messages": counters.get("count.rpc_messages", 0.0),
                "deltas_ingested": counters.get("telemetry.deltas_ingested", 0.0),
            }
        )
    base = rows[0]["ms_per_batch"]
    for row in rows:
        row["overhead_ratio"] = row["ms_per_batch"] / base if base > 0 else 0.0
    return rows, snapshot


def elastic_adaptation(
    group_sizes: Sequence[int] = (1, 2, 4),
    spike_batch: int = 5,
    calm_batch: int = 10,
    num_batches: int = 16,
    batch_interval_s: float = 0.05,
    delta: int = 2,
) -> List[Dict]:
    """§3.3 on the real engine: adaptation delay vs group size under a
    load spike, fixed cluster vs autoscaled.

    A streaming wordcount's traffic triples at ``spike_batch``; a
    spike-reactive policy requests ``+delta`` machines the moment the
    spike is observable (and ``-delta`` once it passes), but the resize
    can only land at the next *group boundary* — so the measured delay
    grows with the group size, which is exactly the trade-off
    :func:`repro.sim.elasticity.simulate_resize` predicts.  Each row
    carries the measured delay, the simulator's prediction for the same
    geometry, and the proof obligations: the resizes really happened and
    the autoscaled counts are byte-identical to the fixed-size run's.
    """
    from repro.common.config import ElasticConf, EngineConf, SchedulingMode
    from repro.elastic.controller import ElasticController
    from repro.elastic.policies import ScalingDecision, ScalingPolicy
    from repro.engine.cluster import LocalCluster
    from repro.sim.elasticity import simulate_resize
    from repro.sim.streaming import SystemConfig
    from repro.streaming.context import StreamingContext
    from repro.streaming.sources import FixedBatchSource

    words = "the quick brown fox jumps over the lazy dog".split()
    batches = [
        [words[(i + j) % len(words)] for j in range(6)] for i in range(num_batches)
    ]
    for i in range(spike_batch, calm_batch):
        batches[i] = batches[i] * 3

    class SpikeReactivePolicy(ScalingPolicy):
        """Requests the resize as soon as the spike is observable; the
        controller can only apply it at the next group boundary, which is
        the delay being measured."""

        def __init__(self) -> None:
            self.observed_at: Optional[int] = None
            self._calmed = False

        def decide(self, recent, current_workers) -> ScalingDecision:
            seen = recent[-1].first_batch + recent[-1].batches - 1 if recent else -1
            if self.observed_at is None and seen >= spike_batch:
                self.observed_at = seen
                return ScalingDecision(+delta, f"spike observed at batch {seen}")
            if self.observed_at is not None and not self._calmed and seen >= calm_batch:
                self._calmed = True
                return ScalingDecision(-delta, f"spike passed at batch {seen}")
            return ScalingDecision(0, "steady")

    def run(group_size: int, elastic: bool):
        conf = EngineConf(
            num_workers=2,
            scheduling_mode=SchedulingMode.DRIZZLE,
            group_size=group_size,
            elastic=ElasticConf(enabled=False, shards_per_worker=2),
        )
        with LocalCluster(conf) as cluster:
            ctx = StreamingContext(
                cluster, FixedBatchSource(batches, 4), batch_interval_s
            )
            policy = None
            partitioner = None
            if elastic:
                policy = SpikeReactivePolicy()
                ctx.set_elasticity(
                    ElasticController(
                        cluster,
                        policy=policy,
                        conf=ElasticConf(
                            enabled=True, cooldown_groups=0, shards_per_worker=2
                        ),
                    )
                )
                partitioner = ctx.shard_partitioner("counts")
            store = ctx.state_store("counts")
            (
                ctx.stream()
                .map(lambda w: (w, 1))
                .reduce_by_key(lambda a, b: a + b, 4, partitioner=partitioner)
                .update_state(store, merge=lambda a, b: a + b)
            )
            ctx.run_batches(num_batches)
            counters = cluster.metrics.counters_snapshot()
        return sorted(store.items()), counters, policy

    rows: List[Dict] = []
    for group_size in group_sizes:
        fixed_counts, _, _ = run(group_size, elastic=False)
        counts, counters, policy = run(group_size, elastic=True)
        # The resize request lands mid-batch — deliberately unaligned
        # with group boundaries (cf. the sim sweep's resize_at_s=121.3);
        # both the engine and the simulator can apply it only at the
        # next group boundary.
        request_s = (spike_batch + 0.5) * batch_interval_s
        observed = policy.observed_at if policy.observed_at is not None else -1
        first_resized_batch = observed + 1
        measured_delay_s = first_resized_batch * batch_interval_s - request_s
        sim = simulate_resize(
            YAHOO,
            SystemConfig(kind="drizzle", machines=2, group_size=group_size),
            rate_before=1e6,
            rate_after=3e6,
            duration_s=num_batches * batch_interval_s,
            resize_at_s=request_s,
            machines_after=2 + delta,
            batch_interval_s=batch_interval_s,
        )
        rows.append(
            {
                "group_size": group_size,
                "first_resized_batch": first_resized_batch,
                "adaptation_delay_s": round(measured_delay_s, 6),
                "sim_delay_s": round(sim.adaptation_delay_s, 6),
                "delay_matches_sim": abs(measured_delay_s - sim.adaptation_delay_s)
                < batch_interval_s / 2,
                "resizes": counters.get("elastic.resizes", 0.0),
                "identical_to_fixed": counts == fixed_counts,
            }
        )
    return rows
