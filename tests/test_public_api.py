"""The public API surface: everything a README user would import must be
exported, importable, and documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.common",
    "repro.core",
    "repro.dag",
    "repro.engine",
    "repro.streaming",
    "repro.continuous",
    "repro.sim",
    "repro.workloads",
    "repro.bench",
    "repro.obs",
    "repro.net",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"


@pytest.mark.parametrize("name", [p for p in PACKAGES if p != "repro"])
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize(
    "path",
    [
        "repro.engine.LocalCluster",
        "repro.engine.Driver",
        "repro.engine.Worker",
        "repro.engine.ExecutorBackend",
        "repro.engine.InlineExecutor",
        "repro.engine.ThreadExecutor",
        "repro.engine.ProcessExecutor",
        "repro.common.ExecutorConf",
        "repro.common.TransportConf",
        "repro.common.MonitorConf",
        "repro.common.SerializationError",
        "repro.dag.dumps_closure",
        "repro.streaming.StreamingContext",
        "repro.streaming.IdempotentSink",
        "repro.streaming.RecordLog",
        "repro.streaming.UtilizationScalingPolicy",
        "repro.streaming.ReducerCountOptimizer",
        "repro.streaming.SlidingWindowAggregator",
        "repro.continuous.ContinuousJob",
        "repro.continuous.WindowAggOperator",
        "repro.core.GroupSizeTuner",
        "repro.core.PendingTaskTable",
        "repro.core.PlacementPolicy",
        "repro.dag.parallelize",
        "repro.dag.compile_plan",
        "repro.sim.CostModel",
        "repro.sim.EventLoop",
        "repro.sim.simulate_stream",
        "repro.sim.simulate_microbenchmark_events",
        "repro.workloads.YahooWorkload",
        "repro.workloads.VideoWorkload",
        "repro.workloads.QueryCorpusGenerator",
        "repro.obs.TraceRecorder",
        "repro.obs.SpanContext",
        "repro.obs.load_trace",
        "repro.obs.summarize",
    ],
)
def test_key_symbols_have_docstrings(path):
    module_name, symbol = path.rsplit(".", 1)
    obj = getattr(importlib.import_module(module_name), symbol)
    doc = inspect.getdoc(obj)
    assert doc and len(doc) > 10, f"{path} lacks a real docstring"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_obs_only_imports_common():
    """repro.obs sits below the engine: it may depend on repro.common but
    never on the layers it instruments (engine/streaming/continuous/dag)."""
    import ast

    import repro.obs.analyze
    import repro.obs.export
    import repro.obs.names
    import repro.obs.trace

    modules = (
        repro.obs.trace,
        repro.obs.export,
        repro.obs.analyze,
        repro.obs.names,
    )
    for module in modules:
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            for name in names:
                if name.startswith("repro."):
                    assert name.startswith(("repro.common", "repro.obs")), (
                        f"{module.__name__} imports {name}"
                    )


def test_public_classes_in_core_are_pure():
    """repro.core must not IMPORT engine/streaming/sim (it is shared
    policy code); prose references in docstrings are fine."""
    import ast

    import repro.core.groups
    import repro.core.prescheduling
    import repro.core.tuner

    for module in (
        repro.core.groups,
        repro.core.prescheduling,
        repro.core.tuner,
    ):
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            for name in names:
                for banned in ("repro.engine", "repro.streaming", "repro.sim"):
                    assert not name.startswith(banned), f"{module.__name__} imports {name}"
