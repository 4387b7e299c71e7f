"""Executor backends: selection, serialization boundary, conf round-trip,
and resource cleanup."""

import multiprocessing
import pickle
import threading

import pytest

from repro.common.config import (
    EngineConf,
    ExecutorConf,
    MonitorConf,
    SchedulingMode,
    TransportConf,
)
from repro.common.errors import ConfigError, SerializationError
from repro.dag.dataset import parallelize
from repro.dag.serde import dumps_closure, loads_closure
from repro.engine.cluster import LocalCluster
from repro.engine.executors import (
    InlineExecutor,
    ProcessExecutor,
    ThreadExecutor,
    create_backend,
)

from engine_test_utils import make_cluster


def _conf(backend: str, **kwargs) -> EngineConf:
    kwargs.setdefault("num_workers", 2)
    kwargs.setdefault("slots_per_worker", 2)
    # Pin the in-process transport: these tests are about executor
    # backends, and the inline executor is deliberately *deferred* (not
    # synchronous) when the tcp transport is active.
    kwargs.setdefault("transport", TransportConf(backend="inproc"))
    return EngineConf(executor=ExecutorConf(backend=backend), **kwargs)


class TestBackendSelection:
    def test_create_backend_types(self):
        assert isinstance(create_backend(_conf("inline"), "w"), InlineExecutor)
        assert isinstance(create_backend(_conf("thread"), "w"), ThreadExecutor)
        backend = create_backend(_conf("process"), "w")
        try:
            assert isinstance(backend, ProcessExecutor)
        finally:
            backend.shutdown()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError, match="inline"):
            EngineConf(executor=ExecutorConf(backend="fiber")).validate()

    def test_thread_backend_keeps_slot_thread_naming(self):
        """Elasticity tests and examples identify the executing worker by
        the historical '{worker_id}-slot' thread-name prefix."""
        backend = create_backend(_conf("thread", slots_per_worker=3), "worker-9")
        try:
            names = backend.slot_thread_names
            assert len(names) == 3
            assert all(n.startswith("worker-9-slot") for n in names)
        finally:
            backend.shutdown()

    def test_inline_backend_is_synchronous(self):
        ran_in = []
        backend = create_backend(_conf("inline"), "w")
        backend.submit(lambda: ran_in.append(threading.current_thread().name))
        assert ran_in == [threading.current_thread().name]


class TestClosureSerde:
    def test_lambda_with_capture_roundtrips(self):
        base = 10
        fn = loads_closure(dumps_closure(lambda x: x + base))
        assert fn(5) == 15

    def test_nested_closure_roundtrips(self):
        def outer(k):
            def inner(x):
                return x * k

            return inner

        fn = loads_closure(dumps_closure(outer(3)))
        assert fn(7) == 21

    def test_global_function_reference_roundtrips(self):
        fn = loads_closure(dumps_closure(_module_level_double))
        assert fn(4) == 8

    def test_function_referencing_global_helper(self):
        fn = loads_closure(dumps_closure(lambda x: _module_level_double(x) + 1))
        assert fn(4) == 9

    def test_defaults_and_kwdefaults_roundtrip(self):
        def f(x, y=5, *, z=7):
            return x + y + z

        fn = loads_closure(dumps_closure(f))
        assert fn(1) == 13

    def test_unpicklable_capture_named_in_error(self):
        lock = threading.Lock()
        with pytest.raises(SerializationError, match="lock"):
            dumps_closure(lambda x: (lock, x))

    def test_error_is_not_raw_pickling_error(self):
        lock = threading.Lock()
        with pytest.raises(SerializationError):
            try:
                dumps_closure(lambda x: (lock, x))
            except pickle.PicklingError:
                pytest.fail("raw PicklingError leaked through dumps_closure")


class TestProcessBoundary:
    def test_unpicklable_closure_raises_named_serialization_error(self):
        """The acceptance case: an unpicklable capture under the process
        backend surfaces as SerializationError naming the capture, not a
        PicklingError from the pool."""
        lock = threading.Lock()
        with LocalCluster(_conf("process")) as cluster:
            ds = parallelize(range(4), 2).map(lambda x: (lock, x)[1])
            with pytest.raises(SerializationError, match="lock"):
                cluster.collect(ds)

    def test_child_error_type_preserved(self):
        from repro.common.errors import TaskError

        with LocalCluster(_conf("process")) as cluster:
            ds = parallelize(range(4), 2).map(lambda x: 1 // 0)
            with pytest.raises(TaskError) as excinfo:
                cluster.collect(ds)
            assert isinstance(excinfo.value.cause, ZeroDivisionError)

    def test_process_pool_cleaned_up_on_shutdown(self):
        with LocalCluster(_conf("process")) as cluster:
            assert sorted(cluster.collect(parallelize(range(8), 4))) == list(range(8))
            assert multiprocessing.active_children()
        assert not multiprocessing.active_children()

    def test_trace_spans_survive_process_boundary(self):
        from repro.common.config import TracingConf
        from repro.obs.names import SPAN_TASK_COMPUTE, SPAN_TASK_EXEC

        conf = _conf("process", tracing=TracingConf(enabled=True))
        with LocalCluster(conf) as cluster:
            cluster.collect(parallelize(range(4), 2).map(lambda x: x + 1))
            events = cluster.tracer.events()
        execs = [e for e in events if e["name"] == SPAN_TASK_EXEC]
        computes = {
            e["span_id"]: e for e in events if e["name"] == SPAN_TASK_COMPUTE
        }
        assert execs, "no task.exec spans recorded for the process backend"
        for span in execs:
            # The context rode the payload into the child and back; the
            # exec span must be parented under its task.compute span.
            assert span["parent_id"] in computes
            assert span["trace_id"] == computes[span["parent_id"]]["trace_id"]


class TestConfRoundTrip:
    def test_to_dict_from_dict_roundtrip(self):
        conf = EngineConf(
            num_workers=3,
            scheduling_mode=SchedulingMode.PRE_SCHEDULED,
            group_size=5,
            executor=ExecutorConf(backend="inline"),
            transport=TransportConf(call_timeout_s=12.5),
            monitor=MonitorConf(enable_heartbeats=True, heartbeat_interval_s=0.1,
                                heartbeat_timeout_s=0.4),
        )
        data = conf.to_dict()
        assert data["scheduling_mode"] == "pre_scheduled"
        assert data["executor"]["backend"] == "inline"
        rebuilt = EngineConf.from_dict(data)
        assert rebuilt == conf

    def test_roundtrip_is_json_compatible(self):
        import json

        data = json.loads(json.dumps(EngineConf().to_dict()))
        assert EngineConf.from_dict(data) == EngineConf()

    def test_unknown_key_lists_valid_ones(self):
        with pytest.raises(ConfigError, match="num_workers"):
            EngineConf.from_dict({"wrokers": 4})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="backend"):
            EngineConf.from_dict({"executor": {"backnd": "thread"}})

    def test_bad_scheduling_mode_rejected(self):
        with pytest.raises(ConfigError, match="drizzle"):
            EngineConf.from_dict({"scheduling_mode": "warp-speed"})

    def test_pipelined_is_not_an_engine_mode(self):
        # §3.6 pipelining is modeled by the simulator only.
        with pytest.raises(ConfigError) as err:
            EngineConf.from_dict({"scheduling_mode": "pipelined"})
        assert "['per_batch', 'pre_scheduled', 'drizzle']" in str(err.value)

    @pytest.mark.parametrize(
        "data, valid_key",
        [
            ({"reuse_intermediate_on_recovery": True}, "map_side_combine"),
            ({"executor": {"start_method": "spawn"}}, "backend"),
            ({"transport": {"rpc_latency_s": 0.0}}, "call_timeout_s"),
            ({"tuner": {"decrease_step": 2}}, "increase_factor"),
            ({"telemetry": {"retention": 512}}, "interval_s"),
            ({"telemetry": {"max_samples_per_delta": 512}}, "interval_s"),
            ({"telemetry": {"signal_window_s": 5.0}}, "interval_s"),
            ({"chaos": {"max_worker_kills": 1}}, "intensity"),
        ],
    )
    def test_removed_keys_rejected(self, data, valid_key):
        with pytest.raises(ConfigError, match=f"valid keys: .*'{valid_key}'"):
            EngineConf.from_dict(data)

    @pytest.mark.parametrize("value", ["tcp", 3, None, ["inproc"]])
    def test_non_dict_subconf_rejected(self, value):
        with pytest.raises(ConfigError, match="EngineConf.transport"):
            EngineConf.from_dict({"transport": value})

    def test_subconf_instance_accepted(self):
        conf = EngineConf.from_dict({"transport": TransportConf(backend="tcp")})
        assert conf.transport.backend == "tcp"


class TestBackendParityExtras:
    def test_count_action_parity(self):
        counts = set()
        for backend in ("inline", "thread", "process"):
            with make_cluster(
                SchedulingMode.DRIZZLE, workers=2, slots=1, backend=backend
            ) as cluster:
                from repro.dag.plan import compile_plan, count_action

                plan = compile_plan(
                    parallelize(range(37), 3).filter(lambda x: x % 2 == 0),
                    count_action(),
                )
                counts.add(cluster.run_plan(plan))
        assert counts == {19}


def _module_level_double(x):
    return x * 2
