"""One round of one workload in a fresh process: start the cluster, warm
up, run groups for the asked time, and write what was measured.

Usage: ``python child.py SPEC.json`` where the spec names the workload,
the pool file, how long to run, whether to trace, and where to write the
result (JSON) and the round's outputs (pickle, for the parent's oracle).
``run.py`` starts it with the environment it should see.

The measured path uses only ``repro``'s top-level exports plus
``repro.workloads``, ``repro.streaming.sources`` and
``repro.streaming.sinks`` (through ``workloads.py``); everything deeper is
reached through ``probes.py``, and only in a traced round.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

WARMUP_GROUPS = 3
WORKERS = 2
SLOTS_PER_WORKER = 2

CALL_METHODS = ("launch_tasks", "notify_output", "fetch_buckets", "task_finished")


def pin_to_one_cpu() -> Optional[int]:
    """Pin to the highest allowed CPU.  Thread executors cannot use a
    second core, and letting the GIL migrate between cores doubles the
    run-to-run spread (see README).  No-op where the call is missing."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def host_steal_s(cpu: Optional[int]) -> Optional[float]:
    """Seconds the hypervisor has run something else while ``cpu`` had work
    to do, from ``/proc/stat`` (10 ms resolution); None where that is not
    published.  The harness only reports it: it is the measured cause of
    most run-to-run spread on a shared host (see README, "Noise")."""
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith(f"cpu{cpu} "):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return None


def engine_conf(workload: Any, wal_dir: str) -> Any:
    from repro import EngineConf, ExecutorConf, SchedulingMode, TransportConf

    conf = EngineConf(
        num_workers=WORKERS,
        slots_per_worker=SLOTS_PER_WORKER,
        scheduling_mode=SchedulingMode.DRIZZLE,
        group_size=workload.group_size,
        transport=TransportConf(backend="tcp"),
        executor=ExecutorConf(backend="thread"),
    )
    if workload.durable:
        conf.ha.enabled = True
        conf.ha.wal_dir = wal_dir
    return conf


def effective_conf(conf: Any) -> Optional[Dict[str, Any]]:
    """Every ``EngineConf`` field as the round ran with it, so a changed
    default shows in the result; the WAL path differs from run to run."""
    if not hasattr(conf, "to_dict"):
        return None
    fields = conf.to_dict()
    if fields.get("ha", {}).get("wal_dir"):
        fields["ha"]["wal_dir"] = "<fresh directory>"
    return fields


class CounterWindow:
    """Counter and histogram growth over the timed region, read from the
    registry the cluster already publishes."""

    def __init__(self, registry: Any):
        self._registry = registry
        self._counters = registry.counters_snapshot()
        self._hist_len = {
            name: len(registry.histogram(name)) for name in registry.histogram_names()
        }
        self.after: Dict[str, float] = {}
        self.new_samples: Dict[str, List[float]] = {}

    def close(self) -> None:
        self.after = self._registry.counters_snapshot()
        self.new_samples = {
            name: self._registry.histogram(name).snapshot()[self._hist_len.get(name, 0):]
            for name in self._registry.histogram_names()
        }

    def delta(self, name: str) -> float:
        return self.after.get(name, 0.0) - self._counters.get(name, 0.0)


def ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def counter_metrics(
    window: CounterWindow, batches: int, groups: int
) -> Dict[str, Optional[float]]:
    """Per-layer metrics that come from the program's own counters."""
    d = window.delta
    calls = {
        name: samples
        for name, samples in window.new_samples.items()
        if name.startswith("net.call_latency.")
    }
    out: Dict[str, Optional[float]] = {
        "core.template_hit_share": ratio(
            d("templates.hit"), d("templates.hit") + d("templates.miss")
        ),
        "engine.tasks_per_batch": ratio(d("count.tasks_launched"), batches),
        "engine.sched_ms_per_batch": ratio(d("time.scheduling") * 1e3, batches),
        "engine.task_transfer_ms_per_batch": ratio(d("time.task_transfer") * 1e3, batches),
        "engine.compute_ms_per_batch": ratio(d("time.compute") * 1e3, batches),
        "net.rpc_per_batch": ratio(d("count.rpc_messages"), batches),
        "net.bytes_per_batch": ratio(
            d("net.bytes_sent") + d("net.bytes_received"), batches
        ),
        "net.launch_bytes_per_group": ratio(d("net.launch_bytes_sent"), groups),
        "net.fetch_batches_per_batch": ratio(d("net.fetch_batches"), batches),
        "net.call_busy_ms_per_batch": ratio(
            sum(sum(samples) for samples in calls.values()) * 1e3, batches
        ),
        "net.connections": window.after.get("net.connections"),
        "data.shm_hit_share": ratio(
            d("net.shm_hits"), d("net.shm_hits") + d("net.shm_fallbacks")
        ),
        "data.blocks_encoded_per_batch": ratio(d("blocks.encoded"), batches),
        "data.block_encode_ms_per_batch": ratio(d("blocks.encode_ms"), batches),
        "ha.wal_bytes_per_group": ratio(d("ha.wal_bytes"), groups),
        "ha.appends_per_group": ratio(d("ha.wal_appends"), groups),
        "ha.fsyncs_per_group": ratio(d("ha.wal_fsyncs"), groups),
        "ha.snapshots": d("ha.wal_snapshots"),
    }
    for method in CALL_METHODS:
        samples = calls.get(f"net.call_latency.{method}")
        out[f"net.call_ms_p50.{method}"] = (
            statistics.median(samples) * 1e3 if samples else None
        )
    return out


def span_metrics(
    spans: List[Any], batches: int, groups: int, checkpoints: float
) -> Dict[str, Any]:
    """Per-layer metrics and the layer budget from the recorded spans."""
    import probes

    timed = [s for s in spans if s.group >= 0]
    own = probes.self_times(timed)
    roots = [s for s in timed if s.name == probes.GROUP]
    driver_thread = roots[0].thread if roots else None
    per_metric: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    budget: Dict[str, Dict[str, float]] = {"driver_thread": {}, "other_threads": {}}
    for span in timed:
        if span.name == probes.GROUP:
            continue
        metric = probes.METRIC_OF[span.name]
        per_metric[metric] = per_metric.get(metric, 0.0) + own[span.id]
        calls[metric] = calls.get(metric, 0) + 1
        side = "driver_thread" if span.thread == driver_thread else "other_threads"
        layer = metric.split(".")[0]
        budget[side][layer] = budget[side].get(layer, 0.0) + own[span.id]
    per = {"batch": batches, "group": groups, "checkpoint": checkpoints}
    out: Dict[str, Optional[float]] = {}
    for metric in set(probes.METRIC_OF.values()):
        # every span metric is named ..._ms_per_<batch|group|checkpoint>
        unit = metric.rsplit("_per_", 1)[1]
        out[metric] = ratio(per_metric.get(metric, 0.0) * 1e3, per[unit])
    out["dag.serde_calls_per_batch"] = ratio(
        calls.get("dag.serde_dumps_ms_per_batch", 0)
        + calls.get("dag.serde_loads_ms_per_batch", 0),
        batches,
    )
    group_wall = sum(s.end - s.start for s in roots)
    uncovered = sum(own[s.id] for s in roots)
    out["harness.trace_coverage"] = ratio(group_wall - uncovered, group_wall)
    budget_ms = {
        side: {layer: ratio(t * 1e3, batches) for layer, t in sorted(layers.items())}
        for side, layers in budget.items()
    }
    budget_ms["driver_thread"]["uncovered"] = ratio(uncovered * 1e3, batches)
    return {"metrics": out, "budget_ms_per_batch": budget_ms}


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    pinned_cpu = pin_to_one_cpu()

    from repro import LocalCluster, StreamingContext

    import probes
    from workloads import SOURCE_PARTITIONS, WORKLOADS, CycledSource, FoldingSink

    workload = WORKLOADS[spec["workload"]]
    with open(spec["pool"]) as f:
        pool = json.load(f)

    recorder = None
    missing: List[str] = []
    if spec["trace"]:
        recorder = probes.Recorder()
        missing = recorder.install()

    g = workload.group_size
    samples_ms: List[float] = []
    failed_groups = 0
    error: Optional[str] = None

    setup_start = time.perf_counter()
    conf = engine_conf(workload, spec["wal_dir"])
    with LocalCluster(conf) as cluster:
        ctx = StreamingContext(cluster, CycledSource(pool, SOURCE_PARTITIONS))
        store = ctx.state_store("state")
        sink = FoldingSink(workload.fold_sink)
        workload.attach(ctx, store, sink)
        run_group = ctx.run_batches
        if recorder is not None:
            run_group = recorder.wrap(probes.GROUP, run_group)
        for _ in range(WARMUP_GROUPS):
            run_group(g)
        setup_s = time.perf_counter() - setup_start

        # The pool is the harness's, not the program's: keep full
        # collections from re-walking it during the timed region.
        gc.collect()
        gc.freeze()

        window = CounterWindow(cluster.metrics)
        max_groups = spec.get("max_groups")
        steal_start = host_steal_s(pinned_cpu)
        timed_start = time.perf_counter()
        deadline = timed_start + spec["seconds"]
        while True:
            if recorder is not None:
                recorder.group = len(samples_ms)
            start = time.perf_counter()
            try:
                run_group(g)
            except Exception as err:  # noqa: BLE001 - any failure fails the group
                # The context may be mid-group; nothing after this is sound.
                failed_groups = 1
                error = repr(err)
                break
            end = time.perf_counter()
            samples_ms.append((end - start) * 1e3 / g)
            if end >= deadline or len(samples_ms) == max_groups:
                break
        timed_s = time.perf_counter() - timed_start
        steal_end = host_steal_s(pinned_cpu)
        steal_share = (
            None if steal_start is None or steal_end is None
            else (steal_end - steal_start) / timed_s
        )
        window.close()
        threads = threading.active_count()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        groups = len(samples_ms)
        batches = groups * g
        layer: Dict[str, Any] = {"metrics": {}}
        if recorder is not None and groups:
            spans = recorder.spans()
            layer = span_metrics(spans, batches, groups, window.delta("count.checkpoints"))
            for metric in probes.metrics_missing_probes(missing):
                layer["metrics"][metric] = None
            layer["metrics"].update(counter_metrics(window, batches, groups))
            layer["metrics"]["net.threads"] = threads
            layer["metrics"]["harness.host_steal_share"] = steal_share
            layer["metrics"]["streaming.state_keys"] = len(store)
            if spec.get("spans"):
                probes.write_jsonl(spans, spec["spans"])

        outputs = {
            "n_batches": ctx.next_batch,
            "state": dict(store.items()),
            "sink_order": sink.order,
            "sink_totals": sink.totals,
            "duplicate_commits": sink.duplicate_commits,
        }
    with open(spec["outputs"], "wb") as f:
        pickle.dump(outputs, f)

    return {
        "workload": workload.name,
        "trace": bool(spec["trace"]),
        "pinned_cpu": pinned_cpu,
        "groups": groups,
        "group_size": g,
        "failed_groups": failed_groups,
        "error": error,
        "samples_ms": samples_ms,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "host_steal_share": steal_share,
        "engine_conf": effective_conf(conf),
        "per_layer": layer["metrics"],
        "budget_ms_per_batch": layer.get("budget_ms_per_batch"),
        "missing_probes": missing,
    }


def main(argv: List[str]) -> int:
    with open(argv[1]) as f:
        spec = json.load(f)
    result = run(spec)
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
