"""End-to-end trace propagation tests.

The contract under test: with tracing enabled, every micro-batch run by
the engine yields spans that stitch into *one tree per batch* — driver
stage spans, worker compute spans (via descriptor contexts through the
RPC envelope), fetch and report spans — including across simulated worker
failure and recovery.  Checkpoint/recovery paths in the streaming layer
and the continuous engine emit their own root spans.
"""

import threading
import time

import pytest

from repro.common.config import EngineConf, SchedulingMode, TracingConf, TunerConf
from repro.continuous.engine import ContinuousJob, SourceSpec
from repro.continuous.operators import MapOperator, OperatorSpec
from repro.dag.dataset import SourceDataset
from repro.dag.plan import compile_plan, dict_action
from repro.engine.cluster import LocalCluster
from repro.obs.analyze import batch_spans, build_trees, per_batch_breakdown, spans
from repro.obs.names import (
    EVENT_TASK_RESUBMIT,
    EVENT_TUNER_DECISION,
    SPAN_BATCH,
    SPAN_CHECKPOINT,
    SPAN_GROUP,
    SPAN_RECOVERY,
    SPAN_STAGE,
    SPAN_TASK_COMPUTE,
    SPAN_TASK_FETCH,
    SPAN_TASK_REPORT,
)
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.streaming.context import StreamingContext
from repro.streaming.sinks import IdempotentSink
from repro.streaming.sources import FixedBatchSource, RecordLog

from engine_test_utils import make_cluster

TRACED = TracingConf(enabled=True)


def keyed_plan(num_partitions=4, num_reducers=2, items=10, offset=0):
    """A two-stage (map -> reduce_by_key) plan over a deterministic source."""

    def partition_fn(index):
        lo = index * items
        return list(range(lo + offset, lo + items + offset))

    ds = (
        SourceDataset(partition_fn, num_partitions)
        .map(lambda x: (x % 2, x))
        .reduce_by_key(lambda a, b: a + b, num_reducers)
    )
    return compile_plan(ds, dict_action())


def slow_keyed_plan(num_partitions=8, delay_s=0.1):
    """Each map task stalls ``delay_s`` on its worker (in its pipeline:
    the driver reads the source when the job is submitted)."""

    def partition_fn(index):
        return list(range(index * 10, (index + 1) * 10))

    def stall(_partition, records):
        time.sleep(delay_s)
        return records

    ds = (
        SourceDataset(partition_fn, num_partitions)
        .map_partitions(stall)
        .map(lambda x: (x % 2, x))
        .reduce_by_key(lambda a, b: a + b, 2)
    )
    return compile_plan(ds, dict_action())


def tree_names(node):
    yield node["event"]["name"]
    for child in node["children"]:
        yield from tree_names(child)


@pytest.mark.parametrize(
    "mode",
    [SchedulingMode.DRIZZLE, SchedulingMode.PER_BATCH, SchedulingMode.PRE_SCHEDULED],
)
class TestOneTreePerBatch:
    def test_multi_stage_group_stitches_into_batch_trees(self, mode):
        """A group of multi-stage batches yields exactly one span tree per
        batch, with stage spans and remote task spans inside it."""
        n_batches = 3
        with make_cluster(mode, tracing=TRACED, group_size=n_batches) as cluster:
            plans = [keyed_plan(offset=b) for b in range(n_batches)]
            cluster.run_group(plans, job_keys=[f"b{b}" for b in range(n_batches)])
        # Read spans after shutdown: a worker records its final
        # task.report span *after* the driver unblocks the client, and
        # over tcp the response round-trip reliably loses that race.
        events = cluster.tracer.events()

        batches = batch_spans(events)
        assert len(batches) == n_batches
        assert len({e["trace_id"] for e in batches}) == n_batches

        trees = build_trees(events)
        for root_event in batches:
            roots = trees[root_event["trace_id"]]
            # One tree: the batch span is the only root of its trace.
            assert [r["event"]["name"] for r in roots] == [SPAN_BATCH]
            names = list(tree_names(roots[0]))
            # Both stages and all their tasks are inside this batch's tree.
            assert names.count(SPAN_STAGE) == 2
            assert names.count(SPAN_TASK_COMPUTE) == 4 + 2  # maps + reduces
            assert names.count(SPAN_TASK_REPORT) == 4 + 2
            # Reduce-side shuffle pulls hang off the reduce compute spans.
            assert names.count(SPAN_TASK_FETCH) == 2
            assert root_event["attrs"]["mode"] == mode.value

    def test_compute_spans_run_on_workers_and_parent_to_stages(self, mode):
        with make_cluster(mode, tracing=TRACED) as cluster:
            cluster.run_plan(keyed_plan())
        events = cluster.tracer.events()

        by_id = {e["span_id"]: e for e in events}
        computes = spans(events, SPAN_TASK_COMPUTE)
        assert computes
        for c in computes:
            assert c["actor"].startswith("worker-")
            parent = by_id[c["parent_id"]]
            assert parent["name"] == SPAN_STAGE
            assert parent["attrs"]["stage"] == c["attrs"]["stage"]

    def test_report_and_fetch_parent_to_their_compute_span(self, mode):
        with make_cluster(mode, tracing=TRACED) as cluster:
            cluster.run_plan(keyed_plan())
        events = cluster.tracer.events()

        by_id = {e["span_id"]: e for e in events}
        reports = spans(events, SPAN_TASK_REPORT)
        fetches = spans(events, SPAN_TASK_FETCH)
        assert reports and fetches
        for e in reports + fetches:
            parent = by_id[e["parent_id"]]
            assert parent["name"] == SPAN_TASK_COMPUTE
            assert parent["actor"] == e["actor"]


class TestGroupAndTunerSpans:
    def test_group_span_and_shared_scheduling_attribution(self):
        n_batches = 4
        with make_cluster(
            SchedulingMode.DRIZZLE, tracing=TRACED, group_size=n_batches
        ) as cluster:
            plans = [keyed_plan(offset=b) for b in range(n_batches)]
            cluster.run_group(plans)
            events = cluster.tracer.events()

        (group,) = spans(events, SPAN_GROUP)
        assert group["parent_id"] is None
        assert group["attrs"]["num_batches"] == n_batches
        assert group["attrs"]["wall_s"] > 0

        # Group-level scheduling/launch spans carry the covered job ids,
        # and the analyzer distributes their cost across those batches.
        job_ids = {e["attrs"]["job_id"] for e in batch_spans(events)}
        group_scheds = [
            e for e in spans(events, "task.schedule") if "batches" in e["attrs"]
        ]
        assert group_scheds
        assert set(group_scheds[0]["attrs"]["batches"]) == job_ids
        rows = per_batch_breakdown(events)
        assert len(rows) == n_batches
        assert all(r["task.schedule"] > 0 for r in rows)

    def test_tuner_decisions_appear_as_instants_on_group_spans(self):
        conf_tuner = TunerConf(enabled=True)
        with make_cluster(
            SchedulingMode.DRIZZLE, tracing=TRACED, group_size=2, tuner=conf_tuner
        ) as cluster:
            for round_ in range(2):
                cluster.run_group([keyed_plan(offset=round_), keyed_plan(offset=round_ + 9)])
            events = cluster.tracer.events()

        decisions = [e for e in events if e["name"] == EVENT_TUNER_DECISION]
        assert len(decisions) == 2
        groups = {e["span_id"]: e for e in spans(events, SPAN_GROUP)}
        for d in decisions:
            assert d["ph"] == "i"
            assert d["parent_id"] in groups
            assert d["attrs"]["action"] in {"increase", "decrease", "hold"}
            assert d["attrs"]["group_size_new"] >= 1


class TestFailureRecoveryStitching:
    @pytest.mark.parametrize(
        "mode", [SchedulingMode.DRIZZLE, SchedulingMode.PRE_SCHEDULED]
    )
    def test_worker_loss_recovery_stays_in_batch_trace(self, mode):
        """Killing a worker mid-job must (a) still produce the exact
        result, (b) emit a root recovery span, and (c) keep the resubmit
        markers and re-run compute spans inside the *same* batch trace —
        the tree survives the failure."""
        with make_cluster(mode, workers=4, slots=1, tracing=TRACED) as cluster:
            plan = slow_keyed_plan()
            killer = threading.Timer(0.05, lambda: cluster.kill_worker("worker-1"))
            killer.start()
            result = cluster.run_plan(plan)
            killer.join()
        events = cluster.tracer.events()

        expected = {}
        for x in range(80):
            expected[x % 2] = expected.get(x % 2, 0) + x
        assert result == expected

        (batch,) = batch_spans(events)
        recoveries = spans(events, SPAN_RECOVERY)
        assert len(recoveries) == 1
        assert recoveries[0]["parent_id"] is None
        assert recoveries[0]["attrs"]["worker"] == "worker-1"
        assert recoveries[0]["attrs"]["resubmitted"] >= 1

        resubmits = [e for e in events if e["name"] == EVENT_TASK_RESUBMIT]
        assert resubmits
        assert all(e["trace_id"] == batch["trace_id"] for e in resubmits)

        # Surviving workers' reruns are still stitched into the batch tree:
        # more compute spans than tasks, all in the batch trace, none from
        # the dead worker after its loss.
        computes = [
            e for e in spans(events, SPAN_TASK_COMPUTE)
            if e["trace_id"] == batch["trace_id"]
        ]
        assert len(computes) > 10  # 8 maps + 2 reduces + at least one rerun
        trees = build_trees(events)
        (batch_root,) = trees[batch["trace_id"]]
        assert list(tree_names(batch_root)).count(SPAN_TASK_COMPUTE) == len(computes)


class TestStreamingSpans:
    def test_checkpoint_and_replay_spans(self):
        batches = [[f"w{i % 3}" for i in range(12)] for _ in range(4)]
        conf = EngineConf(
            num_workers=2,
            slots_per_worker=2,
            scheduling_mode=SchedulingMode.DRIZZLE,
            group_size=2,
            tracing=TRACED,
        )
        cluster = LocalCluster(conf)
        with cluster:
            ctx = StreamingContext(cluster, FixedBatchSource(batches, 2))
            store = ctx.state_store("counts")
            ctx.stream().map(lambda w: (w, 1)).reduce_by_key(
                lambda a, b: a + b, 2
            ).update_state(store, merge=lambda a, b: a + b)
            ctx.run_batches(4)
            ctx.checkpoint()
            before = dict(store.items())
            ctx.restore_and_replay()
            assert dict(store.items()) == before
            events = cluster.tracer.events()

        checkpoints = spans(events, SPAN_CHECKPOINT)
        assert checkpoints
        assert all(e["parent_id"] is None for e in checkpoints)
        assert checkpoints[-1]["attrs"]["stores"] == 1

        (recovery,) = spans(events, SPAN_RECOVERY)
        assert recovery["attrs"]["kind"] == "restore_and_replay"
        assert recovery["attrs"]["replayed"] == 0  # checkpoint was current


class TestContinuousSpans:
    def test_checkpoint_and_global_restart_spans(self):
        log = RecordLog(2)
        for i in range(60):
            log.append(i % 2, (f"k{i % 3}", 1))
        sink = IdempotentSink()
        tracer = TraceRecorder()
        job = ContinuousJob(
            source=SourceSpec(log, event_time_fn=lambda r: 0.0),
            operators=[OperatorSpec("ident", lambda: MapOperator(lambda r: r), 2)],
            sink=sink,
            tracer=tracer,
        )
        job.start()
        job.trigger_checkpoint()
        deadline = time.monotonic() + 10
        while job.completed_checkpoints() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.completed_checkpoints() == 1
        job.kill_operator_instance("ident", 0)
        job.close_input_and_wait(timeout=15)
        events = tracer.events()

        committed = [
            e for e in spans(events, SPAN_CHECKPOINT) if "instances" in e["attrs"]
        ]
        assert committed
        assert committed[0]["actor"] == "jobmanager"
        assert committed[0]["attrs"]["aligned"] is True

        restarts = [
            e for e in spans(events, SPAN_RECOVERY)
            if e["attrs"].get("kind") == "global_restart"
        ]
        assert len(restarts) == 1
        assert restarts[0]["attrs"]["restored_checkpoint"] == committed[0]["attrs"][
            "checkpoint_id"
        ]


class TestTransportPropagation:
    """Trace propagation is transport-independent: the tcp backend ships
    the same Envelope (with its SpanContext) over the wire, so the span
    forest must have identical shape to the in-process transport."""

    @staticmethod
    def _parentage(mode, transport):
        with make_cluster(mode, tracing=TRACED, transport=transport) as cluster:
            cluster.run_plan(keyed_plan())
        events = cluster.tracer.events()
        by_id = {e["span_id"]: e for e in events if "span_id" in e}

        def parent_name(e):
            pid = e.get("parent_id")
            return by_id[pid]["name"] if pid in by_id else None

        return sorted(
            (e["name"], parent_name(e)) for e in events if "span_id" in e
        )

    @pytest.mark.parametrize(
        "mode",
        [SchedulingMode.DRIZZLE, SchedulingMode.PER_BATCH, SchedulingMode.PRE_SCHEDULED],
    )
    def test_span_parentage_identical_across_transports(self, mode):
        inproc = self._parentage(mode, "inproc")
        tcp = self._parentage(mode, "tcp")
        assert inproc == tcp
        # Sanity: the comparison is over a real tree, not an empty one.
        assert (SPAN_TASK_COMPUTE, SPAN_STAGE) in inproc
        assert (SPAN_TASK_REPORT, SPAN_TASK_COMPUTE) in inproc


class TestDisabledTracing:
    def test_disabled_cluster_records_nothing(self):
        with make_cluster(SchedulingMode.DRIZZLE) as cluster:
            assert cluster.tracer is NULL_RECORDER
            result = cluster.run_plan(keyed_plan())
            assert cluster.tracer.events() == []
        assert result  # the job itself still ran
