"""Unit tests for the DStream graph layer (no engine execution: the
per-batch datasets are evaluated with the planner's reference executor)."""

from repro.dag.plan import collect_action, compile_plan
from repro.streaming.dstream import SourceDStream
from repro.streaming.sources import FixedBatchSource

from test_dag_plan import run_plan_locally


class _StubContext:
    """Just enough of a StreamingContext for graph construction."""

    def __init__(self, batches, partitions=2):
        self.source = FixedBatchSource(batches, partitions)
        self.registered = []

    def register_output(self, stream, callback):
        self.registered.append((stream, callback))


def evaluate(stream, batch_index):
    plan = compile_plan(stream.dataset_for(batch_index), collect_action())
    return run_plan_locally(plan)


class TestDStreamGraph:
    def test_source_stream_reads_batch(self):
        ctx = _StubContext([[1, 2, 3], [4, 5]])
        stream = SourceDStream(ctx)
        assert sorted(evaluate(stream, 0)) == [1, 2, 3]
        assert sorted(evaluate(stream, 1)) == [4, 5]

    def test_map_filter_chain(self):
        ctx = _StubContext([[1, 2, 3, 4]])
        stream = SourceDStream(ctx).map(lambda x: x * 10).filter(lambda x: x > 15)
        assert sorted(evaluate(stream, 0)) == [20, 30, 40]

    def test_flat_map(self):
        ctx = _StubContext([["ab", "c"]])
        stream = SourceDStream(ctx).flat_map(list)
        assert sorted(evaluate(stream, 0)) == ["a", "b", "c"]

    def test_map_partitions(self):
        ctx = _StubContext([[1, 2, 3, 4]], partitions=2)
        stream = SourceDStream(ctx).map_partitions(lambda p, it: [sum(it)])
        assert sum(evaluate(stream, 0)) == 10

    def test_reduce_by_key_per_batch(self):
        ctx = _StubContext([[("a", 1), ("a", 2), ("b", 3)]])
        stream = SourceDStream(ctx).reduce_by_key(lambda a, b: a + b, 2)
        assert dict(evaluate(stream, 0)) == {"a": 3, "b": 3}

    def test_group_by_key_per_batch(self):
        ctx = _StubContext([[("a", 1), ("a", 2)]])
        stream = SourceDStream(ctx).group_by_key(1)
        out = dict(evaluate(stream, 0))
        assert sorted(out["a"]) == [1, 2]

    def test_partition_by(self):
        from repro.dag.partitioning import HashPartitioner

        ctx = _StubContext([[("a", 1), ("b", 2)]])
        stream = SourceDStream(ctx).partition_by(HashPartitioner(3))
        assert sorted(evaluate(stream, 0)) == [("a", 1), ("b", 2)]

    def test_transform_custom(self):
        ctx = _StubContext([[3, 1, 2]])
        stream = SourceDStream(ctx).transform(lambda ds: ds.map(lambda x: -x))
        assert sorted(evaluate(stream, 0)) == [-3, -2, -1]

    def test_batches_independent(self):
        """Each batch's dataset is built fresh — no cross-batch leakage."""
        ctx = _StubContext([[1], [2], [3]])
        stream = SourceDStream(ctx).map(lambda x: x * 100)
        assert [evaluate(stream, b) for b in range(3)] == [[100], [200], [300]]

    def test_output_registration(self):
        ctx = _StubContext([[1]])
        stream = SourceDStream(ctx)
        cb = lambda b, records: None
        stream.foreach_batch(cb)
        assert len(ctx.registered) == 1
        assert ctx.registered[0][0] is stream

    def test_sink_to_registers_commit(self):
        from repro.streaming.sinks import IdempotentSink

        ctx = _StubContext([[1]])
        sink = IdempotentSink()
        stream = SourceDStream(ctx)
        stream.sink_to(sink)
        _stream, callback = ctx.registered[0]
        callback(7, ["x"])
        assert sink.records_for(7) == ["x"]

    def test_update_state_registers_merge(self):
        from repro.streaming.state import StateStore

        ctx = _StubContext([[1]])
        store = StateStore("s")
        stream = SourceDStream(ctx)
        stream.update_state(store, merge=lambda a, b: a + b)
        _stream, callback = ctx.registered[0]
        callback(0, [("k", 2)])
        callback(1, [("k", 3)])
        assert store.get("k") == 5
