"""LocalCluster: driver + N workers wired through one transport.

This is the real (threaded) execution substrate — every task genuinely
runs user Python code, shuffles move real records between worker block
stores, and failures are injected by crashing worker objects.  Use it for
correctness, API examples, and fault-injection tests; use
:mod:`repro.sim` when you need 128-machine scaling behaviour.
"""

from __future__ import annotations

import tempfile
import threading
from typing import Any, List, Optional, Sequence

from repro.chaos.injector import ChaosInjector, install, uninstall
from repro.chaos.plan import FaultPlan
from repro.common.clock import Clock, WallClock
from repro.common.config import EngineConf
from repro.common.metrics import MetricsRegistry
from repro.dag.dataset import Dataset
from repro.dag.plan import Action, PhysicalPlan, collect_action, compile_plan
from repro.engine.driver import Driver
from repro.engine.rpc import BaseTransport, Transport
from repro.engine.worker import Worker
from repro.ha.journal import ControlJournal, RecoveredState
from repro.obs.export import write_jsonl, write_perfetto
from repro.obs.live import ClusterTelemetry
from repro.obs.trace import NULL_RECORDER, Recorder, TraceRecorder

# Hard cap on machine kills an armed chaos plan may inject per run;
# further clamped to num_workers - 1 so it never kills the last survivor.
MAX_WORKER_KILLS = 1


class LocalCluster:
    """An in-process cluster.  Context-manager friendly:

    >>> from repro.common.config import EngineConf
    >>> from repro.dag.dataset import parallelize
    >>> with LocalCluster(EngineConf(num_workers=2)) as cluster:
    ...     data = parallelize(range(10), num_partitions=4)
    ...     cluster.collect(data.map(lambda x: x * 2))
    [0, 8, 16, 2, 10, 18, 4, 12, 6, 14]
    """

    def __init__(
        self,
        conf: Optional[EngineConf] = None,
        clock: Optional[Clock] = None,
    ):
        self.conf = conf or EngineConf()
        self.conf.validate()
        self.clock = clock or WallClock()
        self.metrics = MetricsRegistry(self.clock)
        self.tracer: Recorder = (
            TraceRecorder(clock=self.clock, max_events=self.conf.tracing.max_events)
            if self.conf.tracing.enabled
            else NULL_RECORDER
        )
        # In tcp mode the driver's transport is the discovery hub; each
        # worker gets its own transport that knows nothing but the hub's
        # socket address (see docs/networking.md).  In inproc mode one
        # shared Transport routes everything.
        self.transport = self._make_transport(name="driver")
        self._transports: List[BaseTransport] = [self.transport]
        self.driver = Driver(
            self.transport, self.conf, self.metrics, self.clock, tracer=self.tracer
        )
        # Live telemetry store (repro.obs.live): armed before workers so
        # the first shipped delta already has somewhere to land.  Arrivals
        # come from the workers' telemetry loops, so staleness tracks
        # their cadence (the store's default bound).
        self.telemetry: Optional[ClusterTelemetry] = None
        if self.conf.telemetry.enabled:
            self.telemetry = ClusterTelemetry(
                self.conf.telemetry,
                clock=self.clock,
                driver_metrics=self.metrics,
                tracer=self.tracer,
            )
            self.driver.telemetry = self.telemetry
        # Control-plane WAL (repro.ha): opened before any worker joins so
        # the first membership record already lands in the journal, and a
        # session epoch is claimed durably before any fenced message goes
        # out.  ``recovered_state`` is what the *previous* incarnation's
        # journal said the world looked like — LocalCluster.recover and
        # the streaming context read it to resume.
        self.journal: Optional[ControlJournal] = None
        self.recovered_state: Optional[RecoveredState] = None
        if self.conf.ha.enabled:
            wal_dir = self.conf.ha.wal_dir or tempfile.mkdtemp(prefix="repro-wal-")
            self.journal = ControlJournal(wal_dir, metrics=self.metrics)
            self.recovered_state = self.journal.recovered
            self.driver.journal = self.journal
            self.driver.session_epoch = self.journal.open_session()
        self.workers: dict[str, Worker] = {}
        self._worker_seq = 0
        self._lock = threading.Lock()
        for _ in range(self.conf.num_workers):
            self.add_worker()
        if self.conf.monitor.enable_heartbeats:
            self.driver.start_monitor()
        if self.conf.speculation.enabled:
            self.driver.start_speculation()
        # Arm chaos last, after every worker has announced: discovery
        # traffic is plumbing, not a §3.3 failure mode worth injecting on.
        self.chaos: Optional[ChaosInjector] = None
        if self.conf.chaos.enabled:
            plan = FaultPlan.generate(
                self.conf.chaos.seed,
                self.conf.chaos.profile,
                self.conf.chaos.intensity,
            )
            # Never let the plan take the last machine — and never kill at
            # all when no failure detector is running: a dead worker that
            # nothing can notice wedges the engine by design, not by bug.
            kill_budget = min(MAX_WORKER_KILLS, max(self.conf.num_workers - 1, 0))
            if not self.conf.monitor.enable_heartbeats:
                kill_budget = 0
            self.chaos = ChaosInjector(
                plan,
                metrics=self.metrics,
                tracer=self.tracer,
                kill_budget=kill_budget,
                telemetry=self.telemetry,
            )
            install(self.chaos)

    @classmethod
    def recover(
        cls,
        wal_dir: str,
        conf: Optional[EngineConf] = None,
        clock: Optional[Clock] = None,
    ) -> "LocalCluster":
        """Restart a crashed driver from its control-plane WAL.

        Builds a fresh cluster against the journal in ``wal_dir``: the
        :class:`ControlJournal` constructor replays snapshot + tail, the
        new session claims the next (fenced) epoch, and the folded prior
        world is exposed as ``recovered_state`` for the caller — e.g.
        ``StreamingContext.restore_from_recovery`` — to resume from the
        last committed group.  Workers re-announce through the hub as they
        start, exactly as on first boot; uncommitted groups re-execute via
        ordinary §3.3 lineage recovery."""
        conf = conf or EngineConf()
        conf.ha.enabled = True
        conf.ha.wal_dir = wal_dir
        return cls(conf, clock=clock)

    def _make_transport(self, name: str) -> BaseTransport:
        if self.conf.transport.backend == "tcp":
            # Imported here, not at module top: repro.net.transport needs
            # repro.engine.rpc, so a top-level import would be circular
            # for anyone importing repro.net first.
            from repro.net.transport import TcpTransport

            hub_addr = None if name == "driver" else self.transport.address
            return TcpTransport(
                self.metrics,
                clock=self.clock,
                tracer=self.tracer,
                conf=self.conf.transport,
                hub_addr=hub_addr,
                name=name,
            )
        if name == "driver":
            return Transport(self.metrics, tracer=self.tracer)
        return self.transport  # inproc: everyone shares the driver's router

    # ------------------------------------------------------------------
    # Membership / failure injection
    # ------------------------------------------------------------------
    def add_worker(self) -> str:
        """Elastically add a machine; it participates from the next
        scheduling round (group boundary) onwards."""
        with self._lock:
            worker_id = f"worker-{self._worker_seq}"
            self._worker_seq += 1
            transport = self._make_transport(name=worker_id)
            if transport is not self.transport:
                self._transports.append(transport)
            worker = Worker(
                worker_id,
                transport,
                self.conf,
                self.metrics,
                self.clock,
                tracer=self.tracer,
                sources=self.driver.sources,
            )
            self.workers[worker_id] = worker
        worker.start()
        self.driver.add_worker(worker_id)
        return worker_id

    def kill_worker(self, worker_id: str, notify_driver: bool = True) -> None:
        """Crash a machine.  With ``notify_driver=False`` the failure is
        only discovered via heartbeat timeout (requires heartbeats)."""
        worker = self.workers[worker_id]
        worker.kill()
        if notify_driver:
            self.driver.on_worker_lost(worker_id)

    def decommission_worker(self, worker_id: str) -> None:
        self.driver.decommission_worker(worker_id)
        # Drop the discovery-directory entry too: a decommissioned worker
        # must not be resolvable by peers forever (stale-address bugfix).
        self.transport.evict(worker_id)

    def alive_workers(self) -> List[str]:
        return self.driver.alive_workers()

    # ------------------------------------------------------------------
    # Job execution
    # ------------------------------------------------------------------
    def run_plan(self, plan: PhysicalPlan, job_key: Any = None, reuse: bool = False) -> Any:
        return self.driver.run_job(plan, job_key=job_key, reuse=reuse)

    def run(self, dataset: Dataset, action: Optional[Action] = None) -> Any:
        plan = compile_plan(
            dataset, action or collect_action(), map_side_combine=self.conf.map_side_combine
        )
        return self.run_plan(plan)

    def collect(self, dataset: Dataset) -> List[Any]:
        return self.run(dataset, collect_action())

    def run_group(
        self, plans: Sequence[PhysicalPlan], job_keys: Optional[Sequence[Any]] = None
    ) -> List[Any]:
        return self.driver.run_group(plans, job_keys=job_keys)

    def sort(
        self,
        dataset: Dataset,
        key: Any = None,
        num_partitions: int = 4,
        sample_fraction: float = 0.1,
    ) -> List[Any]:
        """Distributed sort, Spark-style: a sampling job picks range
        boundaries, then a range-partitioned job sorts each partition.

        Two jobs total — this is the database-style optimization that
        "depends on data statistics" (§3.6): statistics from one pass
        drive the plan of the next.
        """
        from repro.dag.partitioning import RangePartitioner

        key_fn = key if key is not None else (lambda x: x)
        sample = self.collect(dataset.sample(sample_fraction, seed=self.conf.seed))
        if not sample:
            return sorted(self.collect(dataset), key=key_fn)
        sample_keys = sorted(key_fn(x) for x in sample)
        boundaries = [
            sample_keys[(i + 1) * len(sample_keys) // num_partitions]
            for i in range(num_partitions - 1)
        ]
        partitioner = RangePartitioner(boundaries)
        ranged = (
            dataset.map(lambda x: (key_fn(x), x))
            .partition_by(partitioner)
            .map_partitions(lambda _p, it: [v for _k, v in sorted(it, key=lambda kv: kv[0])])
        )
        parts = self.run(
            ranged.map_partitions(lambda p, it: [(p, list(it))]), None
        )
        ordered: List[Any] = []
        for _p, chunk in sorted(parts):
            ordered.extend(chunk)
        return ordered

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def export_trace(self, path: str, fmt: str = "perfetto") -> int:
        """Write the recorded trace to ``path``; returns the event count.

        ``fmt`` is ``"perfetto"`` (Chrome/Perfetto ``trace_event`` JSON,
        loadable in ``ui.perfetto.dev``) or ``"jsonl"`` (one raw span
        event per line).  Requires ``conf.tracing.enabled``.
        """
        events = self.tracer.events()
        if fmt == "perfetto":
            write_perfetto(events, path)
        elif fmt == "jsonl":
            write_jsonl(events, path)
        else:
            raise ValueError(f"unknown trace format: {fmt!r}")
        return len(events)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        if self.chaos is not None:
            uninstall(self.chaos)
            self.chaos = None
        self.driver.stop_monitor()
        for worker in self.workers.values():
            worker.shutdown()
        if self.journal is not None:
            # A clean close fsyncs the tail; replay of a clean journal is
            # a strict superset of replay after a torn tail.
            self.journal.close()
            self.journal = None
            self.driver.journal = None
        # Close transports last: worker shutdown may still flush reports.
        for transport in reversed(self._transports):
            transport.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
