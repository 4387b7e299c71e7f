"""Spans recorded from outside the program.

A traced round wraps the public functions listed in ``PROBES`` before the
cluster is built.  Each call becomes one span ``(id, name, start, end,
parent, thread, group)``: the parent is the span that was open on the same
thread when the call began, and the group is the one group the closed loop
has in flight.  Spans stay in memory; layer times are worked out afterwards
from *self* time, a span's duration minus its children's.

The table is data so the benchmark outlives refactors of the program: a
target that no longer exists is reported in ``missing`` and its metric
becomes null, nothing else changes.  Module-level functions are patched in
the module that imported them by name (``from x import f`` binds a copy).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

# (metric the span's self time feeds, import path, attribute)
PROBES: List[Tuple[str, str, str]] = [
    # streaming: turning a batch index into a dataset, then delivering results
    ("streaming.plan_ms_per_batch", "repro.streaming.sources", "FixedBatchSource.plan_batch"),
    ("streaming.plan_ms_per_batch", "repro.streaming.sources", "FixedBatchSource.dataset_for"),
    ("streaming.plan_ms_per_batch", "repro.streaming.dstream", "SourceDStream.dataset_for"),
    ("streaming.plan_ms_per_batch", "repro.streaming.dstream", "_TransformedDStream.dataset_for"),
    ("streaming.callback_ms_per_batch", "repro.streaming.state", "StateStore.update_many"),
    ("streaming.callback_ms_per_batch", "repro.streaming.windows", "WindowEmitter.__call__"),
    ("streaming.callback_ms_per_batch", "repro.streaming.sinks", "IdempotentSink.commit"),
    ("streaming.checkpoint_ms_per_group", "repro.streaming.context", "StreamingContext.checkpoint"),
    ("streaming.snapshot_ms_per_checkpoint", "repro.streaming.state", "StateStore.snapshot"),
    # dag: plan compilation and closure serialization, wherever it is called
    ("dag.compile_ms_per_batch", "repro.streaming.context", "compile_plan"),
    ("dag.serde_dumps_ms_per_batch", "repro.net.transport", "dumps_closure"),
    ("dag.serde_dumps_ms_per_batch", "repro.net.stageblobs", "dumps_closure"),
    ("dag.serde_dumps_ms_per_batch", "repro.dag.serde", "dumps_closure"),
    ("dag.serde_loads_ms_per_batch", "repro.net.transport", "loads_closure"),
    ("dag.serde_loads_ms_per_batch", "repro.net.stageblobs", "loads_closure"),
    ("dag.serde_loads_ms_per_batch", "repro.dag.serde", "loads_closure"),
    # core: the placement decision a group reuses
    ("core.plan_group_ms_per_group", "repro.core.groups", "PlacementPolicy.assign"),
    ("core.plan_group_ms_per_group", "repro.core.groups", "plan_group"),
    # engine: driver scheduling, waiting and reports; worker compute and blocks
    ("engine.submit_ms_per_group", "repro.engine.driver", "Driver.submit_group"),
    ("engine.wait_ms_per_group", "repro.engine.driver", "Driver.wait_job"),
    ("engine.report_ms_per_batch", "repro.engine.driver", "Driver.task_finished"),
    ("engine.drop_job_ms_per_group", "repro.engine.driver", "Driver.drop_job"),
    ("engine.exec_ms_per_batch", "repro.engine.executors", "ThreadExecutor.run_compute"),
    ("engine.blocks_put_ms_per_batch", "repro.engine.blocks", "BlockStore.put_map_output"),
    ("engine.blocks_get_ms_per_batch", "repro.engine.blocks", "BlockStore.get_bucket"),
    ("engine.blocks_get_ms_per_batch", "repro.engine.blocks", "BlockStore.get_buckets"),
    # net: one engine message, caller side (serde is its child, so self
    # time is framing, the socket and the wait for the peer's handler)
    ("net.call_self_ms_per_batch", "repro.net.transport", "TcpTransport.call"),
    # ha: the journal records a group boundary pays for
    ("ha.group_commit_ms_per_group", "repro.ha.journal", "ControlJournal.record_group_commit"),
    ("ha.checkpoint_ms_per_checkpoint", "repro.ha.journal", "ControlJournal.record_checkpoint"),
]

# The harness's own span around one ``run_batches(g)``; it is the root the
# driver-thread layer times must add up to.
GROUP = "harness.group"


def target_name(path: str, attr: str) -> str:
    return f"{path}:{attr}"


# span name (the probed function) -> the metric its self time feeds
METRIC_OF: Dict[str, str] = {target_name(p, a): m for m, p, a in PROBES}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    group: int


def link(raw: Iterable[Tuple[str, float, float, int, int]]) -> List[Span]:
    """Give ``(name, start, end, thread, group)`` records ids and parents.
    Calls on one thread nest, so a span's parent is the innermost span of
    its thread that encloses it."""
    by_thread: Dict[int, List[Tuple[str, float, float, int, int]]] = {}
    for record in raw:
        by_thread.setdefault(record[3], []).append(record)
    spans: List[Span] = []
    for thread, records in by_thread.items():
        records.sort(key=lambda r: (r[1], -r[2]))
        open_spans: List[Span] = []
        for name, start, end, _thread, group in records:
            while open_spans and open_spans[-1].end < end:
                open_spans.pop()
            parent = open_spans[-1].id if open_spans else None
            span = Span(len(spans), name, start, end, parent, thread, group)
            spans.append(span)
            open_spans.append(span)
    return spans


class Recorder:
    """Holds the spans of one round."""

    def __init__(self) -> None:
        self.group = -1  # -1 until the timed region starts
        self._raw: List[Tuple[str, float, float, int, int]] = []

    def wrap(self, name: str, fn: Any) -> Any:
        # Kept to two clock reads and one append per call (~0.5 us): the
        # parent is worked out afterwards by link().
        append, now, ident = self._raw.append, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def probed(*args: Any, **kwargs: Any) -> Any:
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                append((name, start, now(), ident(), self.group))

        probed.__probed__ = True  # type: ignore[attr-defined]
        return probed

    def spans(self) -> List[Span]:
        return link(self._raw)

    def install(self, probes: Iterable[Tuple[str, str, str]] = PROBES) -> List[str]:
        """Patch every probe target that exists; returns the missing ones
        as ``"module:attribute"``."""
        probes = list(probes)
        modules: Dict[str, Any] = {}
        for _metric, path, _attr in probes:
            # Import everything first: a module imported after another was
            # patched would bind the wrapper and then be wrapped again.
            if path not in modules:
                try:
                    modules[path] = importlib.import_module(path)
                except ImportError:
                    modules[path] = None
        missing: List[str] = []
        for _metric, path, attr in probes:
            owner: Any = modules[path]
            *parents, leaf = attr.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            target = getattr(owner, leaf, None) if owner is not None else None
            if target is None:
                missing.append(target_name(path, attr))
            elif not getattr(target, "__probed__", False):
                setattr(owner, leaf, self.wrap(target_name(path, attr), target))
        return missing


def write_jsonl(spans: Iterable[Span], path: str) -> None:
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    spans = list(spans)
    own = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.end - span.start
    return own


def metrics_missing_probes(missing: Iterable[str]) -> List[str]:
    """Metrics none of whose probe targets exist any more."""
    gone = set(missing)
    by_metric: Dict[str, List[bool]] = {}
    for metric, path, attr in PROBES:
        by_metric.setdefault(metric, []).append(target_name(path, attr) in gone)
    return sorted(metric for metric, flags in by_metric.items() if all(flags))
