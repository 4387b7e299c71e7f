"""Executor-backend throughput: the same CPU-bound map on the real engine
under the thread and process backends.

Thread slots share one GIL, so pure-Python compute serializes no matter
how many workers the cluster has; the process backend runs each worker's
slots in a spawn-based pool and scales with physical cores.  The 2x
acceptance bound is asserted only on hosts with >= 4 cores — on smaller
machines the backends converge (and process pays IPC overhead), which the
recorded ``cpu_count`` makes explicit in the written JSON.
"""

import os

from repro.bench.figures import executor_backend_comparison
from repro.bench.reporting import render_table, write_bench_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_executor_backend_throughput(benchmark, report):
    rows = benchmark.pedantic(
        executor_backend_comparison, rounds=1, iterations=1
    )
    table = render_table(
        ["backend", "cpu_count", "wall_s", "records_per_s",
         "speedup_vs_thread"],
        [
            [r["backend"], r["cpu_count"], r["wall_s"], r["records_per_s"],
             r["speedup_vs_thread"]]
            for r in rows
        ],
        title="Executor backends — CPU-bound map, 4 workers x 2 slots "
              "(thread serializes on the GIL; process uses all cores)",
    )
    report(table)
    write_bench_json("executor_backends", {"rows": rows}, out_dir=REPO_ROOT)

    by_backend = {r["backend"]: r for r in rows}
    assert set(by_backend) == {"thread", "process"}
    for row in rows:
        assert row["records_per_s"] > 0
    # The multi-core win only exists where there are cores to win on.
    if (os.cpu_count() or 1) >= 4:
        assert by_backend["process"]["speedup_vs_thread"] >= 2.0
