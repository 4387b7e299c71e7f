"""The repo's benchmark: four streaming workloads through the real
LocalCluster / StreamingContext / tcp transport / thread executors, each
round in a fresh pinned child process, every output checked against a
single-threaded reference.  See README.md beside this file.

One workload, as the benchmark driver runs it (last stdout line is JSON):

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

All workloads with a traced round each, every metric printed by name:

    python3 benchmarks/e2e/run.py --seed N --out FILE [--smoke] [--spans-dir DIR]

Two such results compared against the bounds in BENCHMARK.json:

    python3 benchmarks/e2e/run.py compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program under test is missing: {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
from workloads import WORKLOADS, check_outputs, reference  # noqa: E402

ROUNDS = 5
SMOKE_GROUPS = 5


def child_environment() -> Dict[str, str]:
    """The environment every round runs in: no ``REPRO_*`` switch, so conf
    defaults are the repo's own; a fixed hash seed; and a glibc malloc
    that keeps freed memory instead of returning it to the kernel.  With
    the default trimming a round takes ~3500 minor page faults per second
    on the 2000-event workload, each a trip to the hypervisor on a VM,
    and the spread between rounds doubles (see README)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        MALLOC_TRIM_THRESHOLD_=str(1 << 30),
        MALLOC_MMAP_THRESHOLD_=str(1 << 25),  # glibc's maximum
        MALLOC_TOP_PAD_=str(1 << 26),
    )
    return env


class Bench:
    """One invocation's scratch directory, inputs and child processes.
    Everything it writes stays under ``benchmarks/e2e/.work``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.work = HERE / ".work" / str(os.getpid())
        self.work.mkdir(parents=True)
        self._inputs: Dict[str, Dict[str, Any]] = {}
        self._round = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # unless another invocation is using it
        except OSError:
            pass

    def inputs(self, name: str) -> Dict[str, Any]:
        """Generate a workload's pool from the seed (once), hand it to the
        children as a file, and run the single-threaded reference on it."""
        if name not in self._inputs:
            workload = WORKLOADS[name]
            start = time.perf_counter()
            pool = workload.make_pool(self.seed)
            gen_s = time.perf_counter() - start
            path = self.work / f"{name}.pool.json"
            with open(path, "w") as f:
                json.dump(pool, f)
            start = time.perf_counter()
            contributions = reference(workload, pool)
            ref_s = time.perf_counter() - start
            self._inputs[name] = {
                "pool": str(path),
                "contributions": contributions,
                "harness": {
                    "harness.gen_s": gen_s,
                    "harness.ref_records_per_s": sum(len(b) for b in pool) / ref_s,
                },
            }
        return self._inputs[name]

    def round(
        self,
        name: str,
        seconds: float,
        trace: bool,
        max_groups: Optional[int] = None,
        spans: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Run one round in a child process and check its outputs."""
        inputs = self.inputs(name)
        self._round += 1
        base = self.work / f"round{self._round}"
        spec = {
            "workload": name,
            "pool": inputs["pool"],
            "seconds": seconds,
            "max_groups": max_groups,
            "trace": trace,
            "spans": spans,
            "wal_dir": str(base) + ".wal",
            "result": str(base) + ".result.json",
            "outputs": str(base) + ".outputs.pkl",
        }
        spec_path = str(base) + ".spec.json"
        with open(spec_path, "w") as f:
            json.dump(spec, f)
        subprocess.run(
            [sys.executable, str(HERE / "child.py"), spec_path],
            check=True,
            timeout=seconds + 120,
            stdout=sys.stderr,
            env=child_environment(),
        )
        with open(spec["result"]) as f:
            result = json.load(f)
        with open(spec["outputs"], "rb") as f:
            outputs = pickle.load(f)  # written by our own child just now
        errors = check_outputs(WORKLOADS[name], inputs["contributions"], **outputs)
        if result["error"]:
            errors.append(f"group raised: {result['error']}")
        result["errors"] = [f"{name} round {self._round}: {e}" for e in errors]
        result["correct"] = not errors
        shutil.rmtree(spec["wal_dir"], ignore_errors=True)
        os.remove(spec["outputs"])
        return result

    def measure(
        self,
        names: List[str],
        untraced_rounds: int,
        traced: bool,
        seconds_per_round: float,
        max_groups: Optional[int] = None,
        spans_dir: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Untraced rounds interleaved round-robin across the workloads,
        then one traced round each."""
        untraced: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
        for _ in range(untraced_rounds):
            for name in names:
                untraced[name].append(
                    self.round(name, seconds_per_round, trace=False, max_groups=max_groups)
                )
        out: Dict[str, Any] = {}
        for name in names:
            traced_rounds = []
            if traced:
                spans = os.path.join(spans_dir, f"{name}.spans.jsonl") if spans_dir else None
                traced_rounds.append(
                    self.round(
                        name, seconds_per_round, trace=True, max_groups=max_groups, spans=spans
                    )
                )
            out[name] = report.summarize(
                WORKLOADS[name], untraced[name], traced_rounds, self.inputs(name)["harness"]
            )
        return out


def fingerprint(args: argparse.Namespace, rounds: int) -> Dict[str, Any]:
    """Where and how a result was produced; ``compare`` refuses two
    results that differ on ``report.SAME_RUN_SHAPE``."""
    out: Dict[str, Any] = {
        "seed": args.seed,
        "rounds": rounds,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    try:
        from repro.bench.reporting import bench_environment
    except ImportError:
        return out
    out.update(bench_environment())
    # The TransportConf *defaults* (inproc); every workload records the
    # EngineConf it really ran with as ``engine_conf``.
    out.pop("transport", None)
    return out


def run_contract(args: argparse.Namespace) -> int:
    """One workload, the way the benchmark driver asks for it."""
    cat = report.catalogue()
    bench = Bench(args.seed)
    try:
        if args.trace:
            summary = bench.measure([args.workload], 1, True, args.seconds / 2)
            section = "per_layer"
        else:
            summary = bench.measure([args.workload], ROUNDS, False, args.seconds / ROUNDS)
            section = "end_to_end"
    finally:
        bench.close()
    w = summary[args.workload]
    for error in w["errors"]:
        print(error, file=sys.stderr)
    metrics = {}
    for m in cat[section]:
        value = w[section][m["name"]]["value"]
        # A metric with nothing to measure on this workload (no WAL, no
        # templates, a probe target that is gone) is null in the full
        # result; the driver's format wants a number.
        metrics[m["name"]] = {"value": 0.0 if value is None else value, "unit": m["unit"]}
    print(
        json.dumps(
            {
                "correct": w["ops_failed"] == 0,
                "attempted": w["ops_attempted"],
                "failed": w["ops_failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if w["ops_failed"] == 0 else 1


def run_suite(args: argparse.Namespace) -> int:
    """Every workload: untraced rounds for the end-to-end metrics, one
    traced round for the per-layer ones."""
    rounds = 1 if args.smoke else ROUNDS
    bench = Bench(args.seed)
    try:
        workloads = bench.measure(
            list(WORKLOADS),
            rounds,
            True,
            args.seconds / rounds,
            max_groups=SMOKE_GROUPS if args.smoke else None,
            spans_dir=args.spans_dir,
        )
    finally:
        bench.close()
    result = {"fingerprint": fingerprint(args, rounds), "workloads": workloads}
    print(report.render(result))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    failed = sum(w["ops_failed"] for w in workloads.values())
    return 1 if failed else 0


def run_compare(paths: List[str]) -> int:
    results = []
    for path in paths:
        with open(path) as f:
            results.append(json.load(f))
    differences = report.fingerprint_differences(*results)
    if differences:
        print("not comparable, the fingerprints differ on " + "; ".join(differences),
              file=sys.stderr)
        return 2
    rows = report.compare(*results)
    print(report.render_comparison(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return run_compare(argv[1:])
    run_seconds = report.catalogue()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(run_seconds),
                        help="timed seconds per workload, split over its rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"one round of {SMOKE_GROUPS} groups per workload")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--spans-dir", help="write each traced round's spans as JSONL")
    args = parser.parse_args(argv)
    if args.workload:
        return run_contract(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
