"""The four streaming workloads: seeded inputs, pipeline wiring, and the
single-threaded reference every round's outputs are checked against.

A workload's input is a pool of ``POOL_BATCHES`` micro-batches made from
the seed and cycled for as long as the round runs, so batch ``b`` of the
stream is pool batch ``b % POOL_BATCHES``.  The reference computes what
each pool batch contributes once; the expected final output is those
contributions scaled by how often each pool batch ran.

The pool size equals the engine's default stage-blob cache
(``DataPlaneConf.stage_blob_cache_entries == 64``): after one cycle every
launch is token-only, which is the static-DAG steady state the paper
describes.  A pool larger than the cache would measure blob re-shipping
instead.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import Counter
from dataclasses import replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.streaming.sinks import IdempotentSink
from repro.streaming.sources import FixedBatchSource, StreamSource
from repro.workloads import (
    SessionSummary,
    VideoWorkload,
    YahooWorkload,
    attach_microbatch_query,
    attach_session_query,
)

POOL_BATCHES = 64
SOURCE_PARTITIONS = 4
REDUCERS = 4


class CycledSource(StreamSource):
    """Serves an endless stream from a fixed pool: batch ``b`` is pool
    batch ``b % len(pool)``, delegated to :class:`FixedBatchSource`."""

    def __init__(self, pool: Sequence[Sequence[Any]], num_partitions: int):
        self._fixed = FixedBatchSource(pool, num_partitions)

    @property
    def num_partitions(self) -> int:
        return self._fixed.num_partitions

    def plan_batch(self, batch_index: int):
        return self._fixed.plan_batch(batch_index % self._fixed.num_batches)

    def dataset_for(self, batch_range):
        return self._fixed.dataset_for(batch_range)


class FoldingSink(IdempotentSink):
    """An idempotent sink that folds each batch's records into running
    totals instead of keeping them, so a round's memory does not grow
    with the number of batches it had time for.  ``order`` is the
    sequence of batch ids as first committed."""

    def __init__(self, fold: Callable[[Dict[Any, Any], Sequence[Any]], None]):
        super().__init__()
        self._fold = fold
        self.order: List[int] = []
        self.totals: Dict[Any, Any] = {}

    def commit(self, batch_id: int, records: Sequence[Any]) -> bool:
        fresh = super().commit(batch_id, ())
        if fresh:
            self.order.append(batch_id)
            self._fold(self.totals, records)
        return fresh


def multiplicities(n_batches: int) -> List[int]:
    """How many of the first ``n_batches`` stream batches were each pool batch."""
    full, rest = divmod(n_batches, POOL_BATCHES)
    return [full + (1 if i < rest else 0) for i in range(POOL_BATCHES)]


class Workload:
    """One benchmark workload.  Subclasses fix the sizes and define the
    pipeline and its reference."""

    name: str
    why: str
    records_per_batch: int
    group_size: int
    durable = False

    def make_pool(self, seed: int) -> List[List[str]]:
        raise NotImplementedError

    def attach(self, ctx: Any, store: Any, sink: FoldingSink) -> None:
        raise NotImplementedError

    def contribution(self, batch: List[str]) -> Dict[Any, Any]:
        """What one batch adds to the state, computed single-threaded."""
        raise NotImplementedError

    merge: Callable[[Any, Any], Any] = staticmethod(operator.add)

    @staticmethod
    def scale(value: Any, times: int) -> Any:
        """``value`` merged with itself ``times`` times."""
        return value * times

    def fold_sink(self, totals: Dict[Any, Any], records: Sequence[Any]) -> None:
        raise NotImplementedError

    def expected_sink(
        self, contributions: List[Dict[Any, Any]], n_batches: int
    ) -> Dict[Any, Any]:
        raise NotImplementedError

    def observed(
        self, state: Dict[Any, Any], sink_totals: Dict[Any, Any]
    ) -> Tuple[Dict[Any, Any], Dict[Any, Any]]:
        """The (state, sink) pair to compare with the expected pair."""
        return state, sink_totals

    def expected_state(
        self, contributions: List[Dict[Any, Any]], n_batches: int
    ) -> Dict[Any, Any]:
        out: Dict[Any, Any] = {}
        for contribution, times in zip(contributions, multiplicities(n_batches)):
            if times == 0:
                continue
            for key, value in contribution.items():
                scaled = self.scale(value, times)
                out[key] = self.merge(out[key], scaled) if key in out else scaled
        return out


# ----------------------------------------------------------------------
# Yahoo streaming benchmark (reduce-by-key into 10 s campaign windows)
# ----------------------------------------------------------------------
WINDOW_S = 10.0
# 64 batches x 1.25 s = 80 s = exactly 8 windows, so every window closes
# inside the cycle that opened it and all cycles do the same work.
BATCH_SPAN_S = 1.25


class Yahoo(Workload):
    def __init__(self, name: str, why: str, records_per_batch: int, group_size: int):
        self.name = name
        self.why = why
        self.records_per_batch = records_per_batch
        self.group_size = group_size

    @staticmethod
    def _dataset(seed: int = 0) -> YahooWorkload:
        # The ad->campaign map depends only on the two sizes, not the seed.
        return YahooWorkload(num_campaigns=100, ads_per_campaign=10, seed=seed)

    def make_pool(self, seed: int) -> List[List[str]]:
        dataset = self._dataset(seed)
        return [
            dataset.generate(self.records_per_batch, BATCH_SPAN_S, i * BATCH_SPAN_S)
            for i in range(POOL_BATCHES)
        ]

    def attach(self, ctx: Any, store: Any, sink: FoldingSink) -> None:
        attach_microbatch_query(
            ctx,
            self._dataset(),
            store,
            sink,
            window_s=WINDOW_S,
            num_reducers=REDUCERS,
            # The watermark follows the pool position, so windows close as
            # the cycle passes them; closed windows leave the state for
            # the sink.
            watermark_for=lambda b: (b % POOL_BATCHES + 1) * BATCH_SPAN_S,
        )

    def contribution(self, batch: List[str]) -> Dict[Any, Any]:
        return self._dataset().expected_counts(batch, WINDOW_S)

    def fold_sink(self, totals: Dict[Any, Any], records: Sequence[Any]) -> None:
        for campaign, window, count in records:
            key = (campaign, window)
            totals[key] = totals.get(key, 0) + count

    def observed(
        self, state: Dict[Any, Any], sink_totals: Dict[Any, Any]
    ) -> Tuple[Dict[Any, Any], Dict[Any, Any]]:
        # Every count is either still in the state or was emitted once, so
        # the two together must equal the reference; the sink alone has no
        # separate expectation.
        merged = dict(sink_totals)
        for key, count in state.items():
            merged[key] = merged.get(key, 0) + count
        return merged, {}

    def expected_sink(
        self, contributions: List[Dict[Any, Any]], n_batches: int
    ) -> Dict[Any, Any]:
        return {}


# ----------------------------------------------------------------------
# Video analytics (per-session summaries, object values, skewed keys)
# ----------------------------------------------------------------------
class Video(Workload):
    name = "video_shuffle"
    why = (
        "object-valued, Zipf-skewed session summaries: shuffle values take the "
        "pickled fallback lane, so shuffle put/fetch/serde dominate over control"
    )
    records_per_batch = 1000
    group_size = 5

    merge = staticmethod(SessionSummary.merge)

    @staticmethod
    def scale(value: SessionSummary, times: int) -> SessionSummary:
        return replace(
            value,
            events=value.events * times,
            buffering_events=value.buffering_events * times,
            bitrate_sum=value.bitrate_sum * times,
        )

    def make_pool(self, seed: int) -> List[List[str]]:
        dataset = VideoWorkload(num_sessions=2000, zipf_s=1.2, seed=seed)
        return [dataset.generate(self.records_per_batch, 1.0, float(i)) for i in range(POOL_BATCHES)]

    def attach(self, ctx: Any, store: Any, sink: FoldingSink) -> None:
        attach_session_query(ctx, store, sink, num_reducers=REDUCERS)

    def contribution(self, batch: List[str]) -> Dict[Any, Any]:
        return VideoWorkload().expected_summaries(batch)

    def fold_sink(self, totals: Dict[Any, Any], records: Sequence[Any]) -> None:
        for session in records:
            totals[session] = totals.get(session, 0) + 1

    def expected_sink(
        self, contributions: List[Dict[Any, Any]], n_batches: int
    ) -> Dict[Any, Any]:
        touched: Counter = Counter()
        for contribution, times in zip(contributions, multiplicities(n_batches)):
            if times:
                for session in contribution:
                    touched[session] += times
        return dict(touched)


# ----------------------------------------------------------------------
# Durable word count (large state, driver WAL on disk)
# ----------------------------------------------------------------------
class WordCount(Workload):
    name = "wordcount_durable"
    why = (
        "driver WAL on disk plus a checkpoint of a ~25k-key state at every group: "
        "the only workload paying journal append+fsync, snapshot and checkpoint GC"
    )
    lines_per_batch = 500
    words_per_line = 8
    records_per_batch = lines_per_batch
    group_size = 10
    durable = True
    vocabulary = 50_000
    zipf_s = 1.1

    def make_pool(self, seed: int) -> List[List[str]]:
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(self.vocabulary)]
        cumulative = list(
            itertools.accumulate(1.0 / (i + 1) ** self.zipf_s for i in range(self.vocabulary))
        )
        return [
            [
                " ".join(rng.choices(words, cum_weights=cumulative, k=self.words_per_line))
                for _ in range(self.lines_per_batch)
            ]
            for _ in range(POOL_BATCHES)
        ]

    def attach(self, ctx: Any, store: Any, sink: FoldingSink) -> None:
        counts = (
            ctx.stream()
            .flat_map(lambda line: line.split())
            .map(lambda word: (word, 1))
            .reduce_by_key(operator.add, REDUCERS)
        )
        # Each batch emits the state size it leaves behind: a value that is
        # only right when batches were applied once each and in order.
        counts.update_state(
            store,
            merge=operator.add,
            emit=lambda state, _batch: [len(state)],
            sink=sink,
        )

    def contribution(self, batch: List[str]) -> Dict[Any, Any]:
        return dict(Counter(word for line in batch for word in line.split()))

    def fold_sink(self, totals: Dict[Any, Any], records: Sequence[Any]) -> None:
        totals["state_keys"] = totals.get("state_keys", 0) + records[0]

    def expected_sink(
        self, contributions: List[Dict[Any, Any]], n_batches: int
    ) -> Dict[Any, Any]:
        seen: set = set()
        sizes = []
        for contribution in contributions:
            seen.update(contribution)
            sizes.append(len(seen))
        first_cycle = sum(sizes[: min(n_batches, POOL_BATCHES)])
        return {"state_keys": first_cycle + max(n_batches - POOL_BATCHES, 0) * sizes[-1]}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Yahoo(
            "yahoo_coord",
            "100-event batches: schedule, launch, notify, fetch, report and the "
            "socket dominate, so control-plane and net changes show here",
            records_per_batch=100,
            group_size=10,
        ),
        Yahoo(
            "yahoo_compute",
            "same query at 2000 events/batch: JSON parse and map-side combine "
            "dominate, so control-plane and net changes should not move it",
            records_per_batch=2000,
            group_size=5,
        ),
        Video(),
        WordCount(),
    )
}


def reference(workload: Workload, pool: List[List[str]]) -> List[Dict[Any, Any]]:
    """The single-threaded reference job: each pool batch's contribution."""
    return [workload.contribution(batch) for batch in pool]


def check_outputs(
    workload: Workload,
    contributions: List[Dict[Any, Any]],
    n_batches: int,
    state: Dict[Any, Any],
    sink_order: List[int],
    sink_totals: Dict[Any, Any],
    duplicate_commits: int,
) -> List[str]:
    """Differences between a round's outputs and the reference; empty when
    the round is correct."""
    errors: List[str] = []
    if sink_order != list(range(n_batches)):
        errors.append(
            f"sink commits are not batches 0..{n_batches - 1} once each in order "
            f"({len(sink_order)} commits)"
        )
    if duplicate_commits:
        errors.append(f"{duplicate_commits} duplicate sink commits")
    observed_state, observed_sink = workload.observed(state, sink_totals)
    expected_state = workload.expected_state(contributions, n_batches)
    if observed_state != expected_state:
        errors.append(_diff("state", observed_state, expected_state))
    expected_sink = workload.expected_sink(contributions, n_batches)
    if observed_sink != expected_sink:
        errors.append(_diff("sink", observed_sink, expected_sink))
    return errors


def _diff(what: str, observed: Dict[Any, Any], expected: Dict[Any, Any]) -> str:
    wrong = [k for k in expected if observed.get(k) != expected[k]]
    extra = [k for k in observed if k not in expected]
    sample: Tuple[Any, ...] = tuple((wrong + extra)[:3])
    return (
        f"{what} differs from the reference: {len(wrong)} wrong or missing keys, "
        f"{len(extra)} unexpected keys, e.g. {sample!r}"
    )
