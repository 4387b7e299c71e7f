"""Micro-batch streaming on the BSP engine (the Spark Streaming analogue)."""

from repro.elastic.policies import (
    ScalingDecision,
    ScalingPolicy,
    UtilizationScalingPolicy,
)
from repro.streaming.context import StreamingContext
from repro.streaming.dstream import DStream, SourceDStream
from repro.streaming.reoptimizer import (
    ReducerCountOptimizer,
    adaptive_reduce_by_key,
    attach_adaptive_output,
)
from repro.streaming.sliding import SlidingWindowAggregator, attach_sliding_window
from repro.streaming.sinks import AppendSink, EpochFencedSink, IdempotentSink, Sink
from repro.streaming.sources import (
    BatchRange,
    FixedBatchSource,
    LogSource,
    RateSource,
    RecordLog,
    StreamSource,
)
from repro.streaming.state import Checkpoint, CheckpointStore, StateStore
from repro.streaming.windows import WindowEmitter, window_end, window_for

__all__ = [
    "StreamingContext",
    "ScalingDecision",
    "ScalingPolicy",
    "UtilizationScalingPolicy",
    "ReducerCountOptimizer",
    "adaptive_reduce_by_key",
    "attach_adaptive_output",
    "SlidingWindowAggregator",
    "attach_sliding_window",
    "DStream",
    "SourceDStream",
    "AppendSink",
    "EpochFencedSink",
    "IdempotentSink",
    "Sink",
    "BatchRange",
    "FixedBatchSource",
    "LogSource",
    "RateSource",
    "RecordLog",
    "StreamSource",
    "Checkpoint",
    "CheckpointStore",
    "StateStore",
    "WindowEmitter",
    "window_end",
    "window_for",
]
