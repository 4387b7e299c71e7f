"""Chaos soak runner: N seeded runs, each diffed against a fault-free run.

The property under test is the paper's recovery argument (§3.3): with
deterministic workloads, a run that survives injected faults must produce
*exactly* the output of a fault-free run — same batches, same counts, no
losses, no duplicates.  Each iteration builds a fresh cluster armed with
``ChaosConf(seed=...)``, runs the workload, and compares.  On mismatch (or
an unrecovered error) the seed, the generated fault plan, and the log of
faults actually fired are dumped so the failure is reproducible with::

    python -m repro.chaos soak --seeds 1 --seed-base <seed> ...

Invoked as ``python -m repro.chaos soak``; importable for tests via
:func:`run_soak` / :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.chaos.plan import FaultPlan
from repro.common.config import (
    CHAOS_PROFILES,
    ChaosConf,
    EngineConf,
    ExecutorConf,
    MonitorConf,
    SchedulingMode,
    SpeculationConf,
    TransportConf,
)

_ALPHABET = ["a", "b", "c", "d", "e", "f"]


@dataclass
class SoakSettings:
    """One soak configuration (shared by the baseline and every seed)."""

    workload: str = "wordcount"
    profile: str = "mixed"
    transport: str = "tcp"
    executor: str = "process"
    workers: int = 3
    batches: int = 6
    group_size: int = 3
    intensity: float = 1.0
    stage_timeout_s: float = 30.0


@dataclass
class SeedResult:
    seed: int
    ok: bool
    injected: int
    mismatch: bool = False
    error: Optional[str] = None
    duration_s: float = 0.0
    fault_log: List[str] = field(default_factory=list)


@dataclass
class FaultTally:
    """The faults one seed's clusters fired.  The runner owns it, so the
    count and log survive a workload that raises."""

    injected: int = 0
    log: List[str] = field(default_factory=list)

    def harvest(self, cluster: Any) -> None:
        """Add ``cluster``'s fired faults; call once, before it shuts down."""
        if cluster.chaos is not None:
            self.injected += cluster.chaos.injected_count
            self.log += cluster.chaos.fault_log()


@contextmanager
def _cluster(conf: EngineConf, faults: FaultTally) -> Iterator[Any]:
    """A LocalCluster whose faults land in ``faults`` however the block
    ends."""
    from repro.engine.cluster import LocalCluster

    with LocalCluster(conf) as cluster:
        try:
            yield cluster
        finally:
            faults.harvest(cluster)


def _make_conf(settings: SoakSettings, chaos: Optional[ChaosConf]) -> EngineConf:
    return EngineConf(
        num_workers=settings.workers,
        slots_per_worker=2,
        scheduling_mode=SchedulingMode.DRIZZLE,
        group_size=settings.group_size,
        checkpoint_interval_batches=3,
        monitor=MonitorConf(
            enable_heartbeats=True,
            heartbeat_interval_s=0.05,
            heartbeat_timeout_s=0.5,
        ),
        speculation=SpeculationConf(
            enabled=True,
            check_interval_s=0.05,
            min_runtime_s=0.25,
            min_completed_fraction=0.25,
        ),
        transport=TransportConf(
            backend=settings.transport,
            connect_timeout_s=0.5,
            call_timeout_s=5.0,
        ),
        executor=ExecutorConf(backend=settings.executor),
        stage_timeout_s=settings.stage_timeout_s,
        chaos=chaos or ChaosConf(),
    )


def _word_batches(data_seed: int, num_batches: int, n: int = 40) -> List[List[str]]:
    out = []
    for b in range(num_batches):
        rng = random.Random(f"soak-data/{data_seed}/{b}")
        out.append([rng.choice(_ALPHABET) for _ in range(n)])
    return out


# ----------------------------------------------------------------------
# Workloads.  Each returns its canonical result and adds the faults its
# clusters fired to ``faults``; canonical results are plain sorted
# structures so == is the diff.
# ----------------------------------------------------------------------
def _run_wordcount(conf: EngineConf, batches: List[List[str]], faults: FaultTally) -> Any:
    from repro.dag.dataset import parallelize
    from repro.dag.plan import collect_action, compile_plan

    with _cluster(conf, faults) as cluster:
        plans = [
            compile_plan(
                parallelize(words, 4)
                .map(lambda w: (w, 1))
                .reduce_by_key(lambda a, b: a + b, 3),
                collect_action(),
                map_side_combine=conf.map_side_combine,
            )
            for words in batches
        ]
        return [sorted(r) for r in cluster.run_group(plans)]


def _run_streaming(conf: EngineConf, batches: List[List[str]], faults: FaultTally) -> Any:
    from repro.streaming.context import StreamingContext
    from repro.streaming.sources import FixedBatchSource

    with _cluster(conf, faults) as cluster:
        source = FixedBatchSource(batches, 4)
        ctx = StreamingContext(cluster, source, batch_interval_s=0.05)
        store = ctx.state_store("counts")
        stream = (
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 3)
        )
        stream.update_state(store, merge=lambda a, b: a + b)
        ctx.run_batches(len(batches))
        return sorted(store.items())


def _run_elastic(conf: EngineConf, batches: List[List[str]], faults: FaultTally) -> Any:
    """Streaming wordcount under a *scripted* resize schedule: scale out
    at boundary 1, back in at boundary 3, with the reduce partition count
    following the worker count.  The schedule is deterministic
    (boundary-indexed), so the fault-free baseline resizes identically —
    the property under test is that a worker killed right after a resize
    (the ``elastic`` profile's guaranteed fault) still yields the exact
    fixed-size result: no key lost, none duplicated."""
    from repro.elastic.controller import ElasticController
    from repro.elastic.policies import ScheduleScalingPolicy
    from repro.streaming.context import StreamingContext
    from repro.streaming.sources import FixedBatchSource

    with _cluster(conf, faults) as cluster:
        source = FixedBatchSource(batches, 4)
        ctx = StreamingContext(cluster, source, batch_interval_s=0.05)
        controller = ElasticController(
            cluster,
            policy=ScheduleScalingPolicy({1: +1, 3: -1}),
            batch_interval_s=0.05,
        )
        ctx.set_elasticity(controller)
        store = ctx.state_store("counts")
        partitioner = ctx.shard_partitioner("counts")
        stream = (
            ctx.stream()
            .map(lambda w: (w, 1))
            .reduce_by_key(lambda a, b: a + b, 3, partitioner=partitioner)
        )
        stream.update_state(store, merge=lambda a, b: a + b)
        ctx.run_batches(len(batches))
        return sorted(store.items())


def _run_driver(conf: EngineConf, batches: List[List[str]], faults: FaultTally) -> Any:
    """Streaming wordcount whose chaos target is the *driver* itself.

    The ``driver`` profile schedules :data:`KIND_DRIVER_KILL` faults at
    the streaming loop's journaled transition points (group boundary,
    mid-group, mid-checkpoint).  When one fires, this workload does what a
    process supervisor would: tears the incarnation down, restarts from
    the control-plane WAL via :meth:`LocalCluster.recover`, seeds the
    epoch-fenced sink from the journal's committed-batch high-water mark,
    and resumes from the last committed group.  The pass criterion is the
    usual one — byte-identical state versus the fault-free run — plus,
    implicitly, zero double-emissions (the fenced sink would diverge the
    state reconstruction if recommits landed)."""
    import copy
    import os
    import shutil
    import tempfile

    from repro.common.errors import DriverKilled
    from repro.engine.cluster import LocalCluster
    from repro.streaming.context import StreamingContext
    from repro.streaming.sinks import EpochFencedSink
    from repro.streaming.sources import FixedBatchSource

    # CI points REPRO_SOAK_WAL_ROOT somewhere artifact-uploadable so a
    # failing seed's journal survives the run; default is a temp dir.
    wal_root = os.environ.get("REPRO_SOAK_WAL_ROOT") or None
    if wal_root:
        Path(wal_root).mkdir(parents=True, exist_ok=True)
    wal_dir = tempfile.mkdtemp(prefix="soak-wal-", dir=wal_root)
    conf.ha.enabled = True
    conf.ha.wal_dir = wal_dir
    sink = EpochFencedSink()
    total = len(batches)

    def attach(cluster: "LocalCluster"):
        ctx = StreamingContext(
            cluster, FixedBatchSource(batches, 4), batch_interval_s=0.05
        )
        store = ctx.state_store("counts")
        stream = (
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(lambda a, b: a + b, 3)
        )

        def deliver(batch_id: int, records: List[Any]) -> None:
            # State is applied unconditionally — replay after recovery
            # must reconstruct it from the checkpoint forward.  Only the
            # *external emission* dedups: a batch already in the sink's
            # restored ledger commits as a no-op.
            store.update_many(dict(records), lambda a, b: a + b)
            sink.commit(batch_id, sorted(records), epoch=cluster.driver.session_epoch)

        ctx.register_output(stream, deliver)
        return ctx, store

    cluster = LocalCluster(conf)
    try:
        while True:
            ctx, store = attach(cluster)
            recovered = cluster.recovered_state
            if recovered is not None and recovered.session_epoch > 0:
                sink.adopt_epoch(cluster.driver.session_epoch)
                sink.restore_ledger(sorted(recovered.committed_batches))
                ctx.restore_from_recovery(recovered)
            try:
                ctx.run_batches(total - ctx.next_batch)
            except DriverKilled:
                # Control plane "died".  Harvest the fault accounting from
                # the doomed incarnation, then restart from the WAL with
                # chaos disabled: the injector is process-global and the
                # recovered driver is the subject under test, not a fresh
                # target.
                faults.harvest(cluster)
                cluster.shutdown()
                cluster = None
                recover_conf = copy.deepcopy(conf)
                recover_conf.chaos = ChaosConf(enabled=False)
                cluster = LocalCluster.recover(wal_dir, recover_conf)
                continue
            return sorted(store.items())
    finally:
        if cluster is not None:
            faults.harvest(cluster)
            cluster.shutdown()
        if not wal_root:
            # Under REPRO_SOAK_WAL_ROOT the journal is kept for the CI
            # artifact upload; the default temp dir is cleaned up.
            shutil.rmtree(wal_dir, ignore_errors=True)


WORKLOADS: Dict[str, Callable[[EngineConf, List[List[str]], FaultTally], Any]] = {
    "wordcount": _run_wordcount,
    "streaming": _run_streaming,
    "elastic": _run_elastic,
    "driver": _run_driver,
}

# The streaming workload defaults to the streaming fault profile (its
# checkpoint/replay sites see no traffic under plain wordcount); the
# elastic workload to the resize-racing kill profile, and the driver
# workload to the driver-kill profile, for the same reason.
DEFAULT_PROFILE = {
    "wordcount": "mixed",
    "streaming": "streaming",
    "elastic": "elastic",
    "driver": "driver",
}


def run_soak(
    settings: SoakSettings,
    seeds: int,
    seed_base: int = 0,
    out_dir: Optional[str] = None,
    echo: Callable[[str], None] = print,
    keep_going: bool = False,
) -> Dict[str, Any]:
    """Run ``seeds`` seeded iterations; returns a JSON-able summary with
    ``ok`` true iff every run matched the fault-free baseline AND injected
    at least one fault.

    By default the loop stops at the first failing seed (fail fast: a CI
    job surfaces the failure minutes earlier).  With ``keep_going`` every
    seed runs regardless, so one flaky seed does not mask how the rest of
    the range behaves."""
    workload = WORKLOADS[settings.workload]
    soak_start = time.monotonic()
    batches = _word_batches(settings.workers * 1000 + settings.batches, settings.batches)
    out_path = Path(out_dir) if out_dir else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    echo(
        f"soak: workload={settings.workload} profile={settings.profile} "
        f"transport={settings.transport} executor={settings.executor} "
        f"workers={settings.workers} batches={settings.batches}"
    )
    expected = workload(_make_conf(settings, None), batches, FaultTally())
    echo("baseline (fault-free) computed")

    results: List[SeedResult] = []
    for i in range(seeds):
        seed = seed_base + i
        chaos = ChaosConf(
            enabled=True,
            seed=seed,
            profile=settings.profile,
            intensity=settings.intensity,
        )
        started = time.monotonic()
        got: Any = None
        error: Optional[str] = None
        faults = FaultTally()
        try:
            got = workload(_make_conf(settings, chaos), batches, faults)
        except Exception:  # noqa: BLE001 - any escape is a soak failure
            error = traceback.format_exc()
        duration = time.monotonic() - started
        injected, fault_log = faults.injected, faults.log
        mismatch = error is None and got != expected
        ok = error is None and not mismatch and injected >= 1
        results.append(
            SeedResult(
                seed=seed,
                ok=ok,
                injected=injected,
                mismatch=mismatch,
                error=error,
                duration_s=round(duration, 3),
                fault_log=fault_log,
            )
        )
        status = "ok" if ok else ("MISMATCH" if mismatch else ("ERROR" if error else "NO-FAULTS"))
        echo(
            f"seed {seed}: {status} ({injected} fault(s) injected, "
            f"{duration:.1f}s)"
        )
        if not ok:
            _report_failure(
                settings, seed, chaos, expected, got, error, fault_log, out_path, echo
            )
            if not keep_going:
                echo(
                    f"soak: stopping after failing seed {seed} "
                    "(pass --keep-going to run every seed)"
                )
                break

    summary = {
        "ok": all(r.ok for r in results) and len(results) == seeds,
        "seeds": seeds,
        "seed_base": seed_base,
        "attempted": len(results),
        "keep_going": keep_going,
        "wall_time_s": round(time.monotonic() - soak_start, 3),
        "settings": asdict(settings),
        "results": [asdict(r) for r in results],
    }
    if out_path is not None:
        (out_path / "soak-summary.json").write_text(json.dumps(summary, indent=2))
    passed = sum(1 for r in results if r.ok)
    echo(f"soak: {passed}/{seeds} seed(s) passed ({len(results)} attempted)")
    return summary


def _report_failure(
    settings: SoakSettings,
    seed: int,
    chaos: ChaosConf,
    expected: Any,
    got: Any,
    error: Optional[str],
    fault_log: List[str],
    out_path: Optional[Path],
    echo: Callable[[str], None],
) -> None:
    plan = FaultPlan.generate(seed, settings.profile, settings.intensity)
    echo(f"--- failure for seed {seed} ---")
    echo(plan.describe())
    for line in fault_log:
        echo(f"  fired: {line}")
    echo(
        "reproduce with: python -m repro.chaos soak --seeds 1 "
        f"--seed-base {seed} --profile {settings.profile} "
        f"--workload {settings.workload} --transport {settings.transport} "
        f"--executor {settings.executor} --workers {settings.workers} "
        f"--batches {settings.batches}"
    )
    if out_path is None:
        return
    payload = {
        "seed": seed,
        "settings": asdict(settings),
        "chaos": asdict(chaos),
        "plan": [e.describe() for e in plan],
        "fault_log": fault_log,
        "error": error,
        "expected": _jsonable(expected),
        "got": _jsonable(got),
    }
    (out_path / f"soak-failure-seed-{seed}.json").write_text(
        json.dumps(payload, indent=2)
    )


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic fault injection: soak runs and fault-plan tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    soak = sub.add_parser("soak", help="run seeded chaos iterations and diff results")
    soak.add_argument("--seeds", type=int, default=20, help="number of seeded runs")
    soak.add_argument("--seed-base", type=int, default=0, help="first seed")
    soak.add_argument("--profile", choices=CHAOS_PROFILES, default=None)
    soak.add_argument("--workload", choices=sorted(WORKLOADS), default="wordcount")
    soak.add_argument("--transport", choices=("inproc", "tcp"), default="tcp")
    soak.add_argument("--executor", choices=("inline", "thread", "process"), default="process")
    soak.add_argument("--workers", type=int, default=3)
    soak.add_argument("--batches", type=int, default=6)
    soak.add_argument("--group-size", type=int, default=3)
    soak.add_argument("--intensity", type=float, default=1.0)
    soak.add_argument("--stage-timeout", type=float, default=30.0)
    soak.add_argument("--out", default=None, help="directory for summary/failure JSON")
    soak.add_argument(
        "--keep-going",
        action="store_true",
        help="run every seed even after a failure (default: stop at the first)",
    )

    plan = sub.add_parser("plan", help="print the fault plan for one seed")
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--profile", choices=CHAOS_PROFILES, default="mixed")
    plan.add_argument("--intensity", type=float, default=1.0)

    sub.add_parser("profiles", help="list fault profiles")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "profiles":
        for name in CHAOS_PROFILES:
            print(name)
        return 0
    if args.command == "plan":
        print(FaultPlan.generate(args.seed, args.profile, args.intensity).describe())
        return 0
    settings = SoakSettings(
        workload=args.workload,
        profile=args.profile or DEFAULT_PROFILE[args.workload],
        transport=args.transport,
        executor=args.executor,
        workers=args.workers,
        batches=args.batches,
        group_size=args.group_size,
        intensity=args.intensity,
        stage_timeout_s=args.stage_timeout,
    )
    summary = run_soak(
        settings,
        seeds=args.seeds,
        seed_base=args.seed_base,
        out_dir=args.out,
        keep_going=args.keep_going,
    )
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
