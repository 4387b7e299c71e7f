"""repro — a from-scratch reproduction of *Drizzle: Fast and Adaptable
Stream Processing at Scale* (SOSP 2017).

Stable public API
-----------------

Everything a user needs to stand up a cluster and run batch or streaming
jobs is importable from the top level.  The deep modules remain the
*implementation* homes and keep working, but the names below are the
supported surface:

=============================================  ==========================
Old deep import (still works)                  Stable top-level name
=============================================  ==========================
``repro.engine.cluster.LocalCluster``          ``repro.LocalCluster``
``repro.common.config.EngineConf``             ``repro.EngineConf``
``repro.common.config.SchedulingMode``         ``repro.SchedulingMode``
``repro.common.config.ExecutorConf``           ``repro.ExecutorConf``
``repro.common.config.TransportConf``          ``repro.TransportConf``
``repro.common.config.TelemetryConf``          ``repro.TelemetryConf``
``repro.common.config.ChaosConf``              ``repro.ChaosConf``
``repro.common.config.ElasticConf``            ``repro.ElasticConf``
``repro.common.config.TunerConf``              ``repro.TunerConf``
``repro.common.config.TracingConf``            ``repro.TracingConf``
``repro.common.config.MonitorConf``            ``repro.MonitorConf``
``repro.common.config.SpeculationConf``        ``repro.SpeculationConf``
``repro.streaming.context.StreamingContext``   ``repro.StreamingContext``
=============================================  ==========================

Layers (bottom-up):

* :mod:`repro.dag` — dataset DAG, stage planner, shuffle specs, combiners.
* :mod:`repro.engine` — real threaded BSP engine (the "Spark" substrate)
  with Drizzle's group scheduling and pre-scheduling built in.
* :mod:`repro.core` — the paper's contribution as pure policy: group
  planning, pre-scheduling dependency tables, the AIMD group-size tuner.
* :mod:`repro.streaming` — micro-batch streaming (DStreams, state,
  checkpoints, exactly-once sinks) on top of the engine.
* :mod:`repro.continuous` — a continuous-operator engine (the "Flink"
  baseline) with aligned snapshots and restart-based recovery.
* :mod:`repro.sim` — a discrete-event cluster simulator used to reproduce
  the paper's 128-machine experiments.
* :mod:`repro.workloads` — Yahoo streaming benchmark, video analytics,
  micro-benchmarks, and the Table-2 query corpus.
* :mod:`repro.bench` — one experiment definition per paper table/figure.
"""

from __future__ import annotations

from typing import Any

__version__ = "1.0.0"

from repro.common.config import (
    ChaosConf,
    ElasticConf,
    EngineConf,
    ExecutorConf,
    MonitorConf,
    SchedulingMode,
    SpeculationConf,
    TelemetryConf,
    TracingConf,
    TransportConf,
    TunerConf,
)

# Heavyweight entry points resolve lazily (module __getattr__, PEP 562):
# `import repro` stays cheap, and repro.common does not drag the engine
# or streaming layers in through the package __init__.
_LAZY_EXPORTS = {
    "LocalCluster": ("repro.engine.cluster", "LocalCluster"),
    "StreamingContext": ("repro.streaming.context", "StreamingContext"),
}

__all__ = [
    "ChaosConf",
    "ElasticConf",
    "EngineConf",
    "ExecutorConf",
    "LocalCluster",
    "MonitorConf",
    "SchedulingMode",
    "SpeculationConf",
    "StreamingContext",
    "TelemetryConf",
    "TracingConf",
    "TransportConf",
    "TunerConf",
    "__version__",
]


def __getattr__(name: str) -> Any:
    entry = _LAZY_EXPORTS.get(name)
    if entry is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(entry[0]), entry[1])
    globals()[name] = value  # cache: next access skips __getattr__
    return value
