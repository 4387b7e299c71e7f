"""Physical planning: logical dataset DAG + action -> stages and shuffles.

The planner fuses narrow chains into per-stage pipelines and cuts stages
at shuffle dependencies (Figure 1 of the paper).  The resulting
:class:`PhysicalPlan` is engine-agnostic: the threaded engine executes the
stage functions for real; the simulator uses only the stage/shuffle
*shape* plus a cost model.

Map-side combining (§3.5) is resolved **at plan time**: the same logical
DAG compiles to different map-output and reduce-merge functions depending
on ``map_side_combine``, so the engine never needs to re-interpret shuffle
payloads.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.core.prescheduling import all_to_all_deps, tree_reduce_deps
from repro.dag.combiners import (
    Aggregator,
    combine_locally,
    group_values_iter,
    merge_combiners_iter,
    reduce_values_iter,
)
from repro.dag.dataset import (
    CoGroupDataset,
    Dataset,
    NarrowDataset,
    ShuffledDataset,
    SourceDataset,
    TreeStageDataset,
    UnionDataset,
)
from repro.dag.partitioning import Partitioner

PipelineOp = Callable[[int, Iterator], Iterator]
# fetched[input_index] -> list of per-map-task streams
InputMerge = Callable[[int, List[List[Iterable]]], Iterator]
MapOutputFn = Callable[[int, Iterator], Dict[int, List]]


# ----------------------------------------------------------------------
# Plan data structures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShuffleSpec:
    """One shuffle dependency between a map stage and a reduce stage."""

    shuffle_id: int
    num_maps: int
    partitioner: Partitioner
    structure: str = "all"  # "all" (all-to-all) or "tree" (§3.6)
    fan_in: int = 0

    @property
    def num_reducers(self) -> int:
        return self.partitioner.num_partitions

    def reduce_deps(self, reducer_index: int) -> frozenset:
        """Which map outputs reducer ``reducer_index`` must wait for —
        the dependency set used by pre-scheduling (§3.2, §3.6)."""
        if self.structure == "tree":
            return tree_reduce_deps(
                self.shuffle_id, self.num_maps, reducer_index, self.fan_in
            )
        return all_to_all_deps(self.shuffle_id, self.num_maps)

    def map_indices_for_reducer(self, reducer_index: int) -> List[int]:
        return sorted(m for (_sid, m) in self.reduce_deps(reducer_index))


@dataclass
class StageSpec:
    """One stage: a fused narrow pipeline with typed input and output."""

    stage_index: int
    num_tasks: int
    pipeline: PipelineOp
    source_fn: Optional[Callable[[int], Iterable]] = None
    locality: Optional[Sequence[Optional[str]]] = None
    input_shuffles: Tuple[ShuffleSpec, ...] = ()
    input_merge: Optional[InputMerge] = None
    output_shuffle: Optional[ShuffleSpec] = None
    map_output_fn: Optional[MapOutputFn] = None
    action_fn: Optional[Callable[[int, Iterator], Any]] = None
    parents: Tuple[int, ...] = ()

    @property
    def is_result(self) -> bool:
        return self.action_fn is not None

    @property
    def is_source(self) -> bool:
        """Reads a source, not a shuffle: its worker resolves a read spec."""
        return not self.input_shuffles

    def code_only(self) -> "StageSpec":
        """This stage without its source function: what a worker receives.
        A source task's descriptor carries a read spec instead."""
        if self.source_fn is None:
            return self
        return dataclasses.replace(self, source_fn=None)

    def task_dependencies(self, partition: int) -> frozenset:
        """Union of dependency sets over every input shuffle."""
        deps: set = set()
        for spec in self.input_shuffles:
            deps |= spec.reduce_deps(partition)
        return frozenset(deps)


@dataclass
class PhysicalPlan:
    """Stages in topological order; the last stage is the result stage."""

    stages: List[StageSpec]
    finalize: Callable[[List[Any]], Any]

    def __post_init__(self) -> None:
        if not self.stages:
            raise PlanError("plan has no stages")
        if not self.stages[-1].is_result:
            raise PlanError("last stage must be the result stage")
        for i, stage in enumerate(self.stages):
            if stage.stage_index != i:
                raise PlanError("stage indices must be dense and ordered")

    @property
    def result_stage(self) -> StageSpec:
        return self.stages[-1]

    @property
    def num_shuffles(self) -> int:
        return sum(1 for s in self.stages if s.output_shuffle is not None)

    def total_tasks(self) -> int:
        return sum(s.num_tasks for s in self.stages)

    def code_only(self) -> "PhysicalPlan":
        """This plan with every stage :meth:`StageSpec.code_only`."""
        return PhysicalPlan([s.code_only() for s in self.stages], self.finalize)


@dataclass(frozen=True)
class Action:
    """What to do with the final stage's records."""

    name: str
    action_fn: Callable[[int, Iterator], Any]
    finalize: Callable[[List[Any]], Any]


def collect_action() -> Action:
    return Action("collect", lambda _p, it: list(it), _concat)


def count_action() -> Action:
    return Action("count", lambda _p, it: sum(1 for _ in it), lambda parts: sum(parts))


def reduce_action(fn: Callable[[Any, Any], Any]) -> Action:
    def local(_p: int, it: Iterator) -> List[Any]:
        acc = None
        seen = False
        for x in it:
            acc = x if not seen else fn(acc, x)
            seen = True
        return [acc] if seen else []

    def final(parts: List[List[Any]]) -> Any:
        values = [v for part in parts for v in part]
        if not values:
            raise PlanError("reduce of empty dataset")
        return functools.reduce(fn, values)

    return Action("reduce", local, final)


def dict_action() -> Action:
    """Collect (key, value) pairs into a dict (keys must be unique)."""
    return Action(
        "collect_dict",
        lambda _p, it: list(it),
        lambda parts: dict(kv for part in parts for kv in part),
    )


def foreach_action(fn: Callable[[Any], None]) -> Action:
    """Apply a side-effecting function per record on the workers."""

    def local(_p: int, it: Iterator) -> int:
        n = 0
        for x in it:
            fn(x)
            n += 1
        return n

    return Action("foreach", local, lambda parts: sum(parts))


def _concat(parts: List[List[Any]]) -> List[Any]:
    out: List[Any] = []
    for part in parts:
        out.extend(part)
    return out


# ----------------------------------------------------------------------
# Pipeline / merge helpers
# ----------------------------------------------------------------------
def _compose(ops: Sequence[PipelineOp]) -> PipelineOp:
    ops = list(ops)

    def pipeline(partition: int, it: Iterator) -> Iterator:
        for op in ops:
            it = op(partition, it)
        return it

    return pipeline


def _flatten_streams(fetched_one: List[List[Iterable]]) -> List[Iterable]:
    if len(fetched_one) != 1:
        raise PlanError(f"expected one input shuffle, got {len(fetched_one)}")
    return fetched_one[0]


def _make_hash_map_output(
    spec: ShuffleSpec, aggregator: Optional[Aggregator], combine: bool
) -> MapOutputFn:
    partitioner = spec.partitioner

    def map_output(_partition: int, it: Iterator) -> Dict[int, List]:
        partition = partitioner.partition
        buckets: Dict[int, List] = {r: [] for r in range(spec.num_reducers)}
        if combine and aggregator is not None:
            # Combine the whole partition, then route each distinct key
            # once.  A key's bucket depends only on the key, so every
            # bucket holds what combining it separately would give: keys
            # in first-arrival order, values merged in arrival order.
            for kv in combine_locally(it, aggregator).items():
                buckets[partition(kv[0])].append(kv)
        else:
            for kv in it:
                buckets[partition(kv[0])].append(kv)
        return buckets

    return map_output


def _make_tree_map_output(
    spec: ShuffleSpec, fn: Callable[[Any, Any], Any]
) -> MapOutputFn:
    def map_output(partition: int, it: Iterator) -> Dict[int, List]:
        acc = None
        seen = False
        for x in it:
            acc = x if not seen else fn(acc, x)
            seen = True
        bucket = partition // spec.fan_in
        return {bucket: ([acc] if seen else [])}

    return map_output


def _make_cogroup_merge(mode: str) -> InputMerge:
    def merge(_partition: int, fetched: List[List[Iterable]]) -> Iterator:
        if len(fetched) != 2:
            raise PlanError(f"cogroup expects two input shuffles, got {len(fetched)}")
        left: Dict[Any, List[Any]] = {}
        right: Dict[Any, List[Any]] = {}
        for stream in fetched[0]:
            for k, v in stream:
                left.setdefault(k, []).append(v)
        for stream in fetched[1]:
            for k, v in stream:
                right.setdefault(k, []).append(v)
        if mode == "cogroup":
            # Left keys in first-seen order, then right-only keys: a set
            # union would order keys by the process's hash seed.
            for k, lvs in left.items():
                yield (k, (lvs, right.get(k, [])))
            for k, rvs in right.items():
                if k not in left:
                    yield (k, ([], rvs))
            return
        for k, lvs in left.items():
            rvs = right.get(k)
            if rvs is None:
                if mode == "left":
                    for lv in lvs:
                        yield (k, (lv, None))
                continue
            for lv in lvs:
                for rv in rvs:
                    yield (k, (lv, rv))

    return merge


def _make_union_map_output(spec: ShuffleSpec) -> MapOutputFn:
    """Round-robin raw records across the union's reduce partitions."""

    def map_output(_partition: int, it: Iterator) -> Dict[int, List]:
        buckets: Dict[int, List] = {r: [] for r in range(spec.num_reducers)}
        for i, record in enumerate(it):
            buckets[i % spec.num_reducers].append(record)
        return buckets

    return map_output


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------
class _OpenStage:
    """A stage under construction during the DAG walk."""

    def __init__(self, num_tasks: int):
        self.num_tasks = num_tasks
        self.ops: List[PipelineOp] = []
        self.source_fn: Optional[Callable[[int], Iterable]] = None
        self.locality: Optional[Sequence[Optional[str]]] = None
        self.input_shuffles: Tuple[ShuffleSpec, ...] = ()
        self.input_merge: Optional[InputMerge] = None
        self.parents: Tuple[int, ...] = ()


class _Planner:
    def __init__(self, map_side_combine: bool):
        self.map_side_combine = map_side_combine
        self.stages: List[StageSpec] = []
        self._next_shuffle_id = 0

    def _new_shuffle_id(self) -> int:
        sid = self._next_shuffle_id
        self._next_shuffle_id += 1
        return sid

    def _close_stage(
        self,
        open_stage: _OpenStage,
        output_shuffle: ShuffleSpec,
        map_output_fn: MapOutputFn,
    ) -> int:
        index = len(self.stages)
        self.stages.append(
            StageSpec(
                stage_index=index,
                num_tasks=open_stage.num_tasks,
                pipeline=_compose(open_stage.ops),
                source_fn=open_stage.source_fn,
                locality=open_stage.locality,
                input_shuffles=open_stage.input_shuffles,
                input_merge=open_stage.input_merge,
                output_shuffle=output_shuffle,
                map_output_fn=map_output_fn,
                parents=open_stage.parents,
            )
        )
        return index

    def visit(self, node: Dataset) -> _OpenStage:
        if isinstance(node, SourceDataset):
            open_stage = _OpenStage(node.num_partitions)
            open_stage.source_fn = node.partition_fn
            open_stage.locality = node.locality
            return open_stage

        if isinstance(node, NarrowDataset):
            open_stage = self.visit(node.parent)
            open_stage.ops.append(node.op)
            return open_stage

        if isinstance(node, ShuffledDataset):
            return self._visit_shuffle(node)

        if isinstance(node, CoGroupDataset):
            return self._visit_cogroup(node)

        if isinstance(node, UnionDataset):
            return self._visit_union(node)

        if isinstance(node, TreeStageDataset):
            return self._visit_tree(node)

        raise PlanError(f"unknown dataset node type: {type(node).__name__}")

    def _visit_shuffle(self, node: ShuffledDataset) -> _OpenStage:
        parent_stage = self.visit(node.parent)
        spec = ShuffleSpec(
            shuffle_id=self._new_shuffle_id(),
            num_maps=parent_stage.num_tasks,
            partitioner=node.partitioner,
        )
        combine = self.map_side_combine and node.combinable
        map_output_fn = _make_hash_map_output(spec, node.aggregator, combine)
        parent_index = self._close_stage(parent_stage, spec, map_output_fn)

        aggregator = node.aggregator
        if node.reduce_mode == "combine":
            assert aggregator is not None
            if combine:
                merge: InputMerge = lambda _p, fetched: merge_combiners_iter(
                    _flatten_streams(fetched), aggregator
                )
            else:
                merge = lambda _p, fetched: reduce_values_iter(
                    _flatten_streams(fetched), aggregator
                )
        elif node.reduce_mode == "group":
            merge = lambda _p, fetched: group_values_iter(_flatten_streams(fetched))
        else:  # identity
            merge = lambda _p, fetched: (
                kv for stream in _flatten_streams(fetched) for kv in stream
            )

        open_stage = _OpenStage(spec.num_reducers)
        open_stage.input_shuffles = (spec,)
        open_stage.input_merge = merge
        open_stage.parents = (parent_index,)
        return open_stage

    def _visit_cogroup(self, node: CoGroupDataset) -> _OpenStage:
        left_stage = self.visit(node.left)
        left_spec = ShuffleSpec(
            shuffle_id=self._new_shuffle_id(),
            num_maps=left_stage.num_tasks,
            partitioner=node.partitioner,
        )
        left_index = self._close_stage(
            left_stage, left_spec, _make_hash_map_output(left_spec, None, False)
        )

        right_stage = self.visit(node.right)
        right_spec = ShuffleSpec(
            shuffle_id=self._new_shuffle_id(),
            num_maps=right_stage.num_tasks,
            partitioner=node.partitioner,
        )
        right_index = self._close_stage(
            right_stage, right_spec, _make_hash_map_output(right_spec, None, False)
        )

        open_stage = _OpenStage(node.partitioner.num_partitions)
        open_stage.input_shuffles = (left_spec, right_spec)
        open_stage.input_merge = _make_cogroup_merge(node.mode)
        open_stage.parents = (left_index, right_index)
        return open_stage

    def _visit_union(self, node: UnionDataset) -> _OpenStage:
        left_stage = self.visit(node.left)
        left_spec = ShuffleSpec(
            shuffle_id=self._new_shuffle_id(),
            num_maps=left_stage.num_tasks,
            partitioner=node.partitioner,
        )
        left_index = self._close_stage(
            left_stage, left_spec, _make_union_map_output(left_spec)
        )

        right_stage = self.visit(node.right)
        right_spec = ShuffleSpec(
            shuffle_id=self._new_shuffle_id(),
            num_maps=right_stage.num_tasks,
            partitioner=node.partitioner,
        )
        right_index = self._close_stage(
            right_stage, right_spec, _make_union_map_output(right_spec)
        )

        def merge(_p: int, fetched: List[List[Iterable]]) -> Iterator:
            for side in fetched:
                for stream in side:
                    yield from stream

        open_stage = _OpenStage(node.partitioner.num_partitions)
        open_stage.input_shuffles = (left_spec, right_spec)
        open_stage.input_merge = merge
        open_stage.parents = (left_index, right_index)
        return open_stage

    def _visit_tree(self, node: TreeStageDataset) -> _OpenStage:
        parent_stage = self.visit(node.parent)
        from repro.dag.partitioning import HashPartitioner

        spec = ShuffleSpec(
            shuffle_id=self._new_shuffle_id(),
            num_maps=parent_stage.num_tasks,
            partitioner=HashPartitioner(node.num_partitions),
            structure="tree",
            fan_in=node.fan_in,
        )
        map_output_fn = _make_tree_map_output(spec, node.fn)
        parent_index = self._close_stage(parent_stage, spec, map_output_fn)

        fn = node.fn

        def merge(_p: int, fetched: List[List[Iterable]]) -> Iterator:
            acc = None
            seen = False
            for stream in _flatten_streams(fetched):
                for x in stream:
                    acc = x if not seen else fn(acc, x)
                    seen = True
            if seen:
                yield acc

        open_stage = _OpenStage(node.num_partitions)
        open_stage.input_shuffles = (spec,)
        open_stage.input_merge = merge
        open_stage.parents = (parent_index,)
        return open_stage


def compile_plan(
    dataset: Dataset, action: Action, map_side_combine: bool = True
) -> PhysicalPlan:
    """Compile a logical dataset + action into a :class:`PhysicalPlan`."""
    planner = _Planner(map_side_combine=map_side_combine)
    final_open = planner.visit(dataset)
    index = len(planner.stages)
    planner.stages.append(
        StageSpec(
            stage_index=index,
            num_tasks=final_open.num_tasks,
            pipeline=_compose(final_open.ops),
            source_fn=final_open.source_fn,
            locality=final_open.locality,
            input_shuffles=final_open.input_shuffles,
            input_merge=final_open.input_merge,
            action_fn=action.action_fn,
            parents=final_open.parents,
        )
    )
    return PhysicalPlan(stages=planner.stages, finalize=action.finalize)
