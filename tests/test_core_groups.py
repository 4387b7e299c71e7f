"""Tests for group-scheduling policy (§3.1): placement and planning."""

import pytest
from hypothesis import given, strategies as st

from repro.core.groups import (
    GroupObservation,
    PlacementPolicy,
    StageTemplate,
    plan_group,
)


def two_stage_templates(num_maps=6, num_reduces=3):
    return [
        StageTemplate(stage_index=0, num_tasks=num_maps, is_shuffle_map=True, shuffle_id=0),
        StageTemplate(stage_index=1, num_tasks=num_reduces, is_shuffle_map=False),
    ]


class TestPlacementPolicy:
    def test_requires_workers(self):
        with pytest.raises(ValueError):
            PlacementPolicy([], 2)

    def test_requires_slots(self):
        with pytest.raises(ValueError):
            PlacementPolicy(["w0"], 0)

    def test_deterministic(self):
        # Same inputs -> same placement; the §3.1 reuse argument needs this.
        a = PlacementPolicy(["w1", "w0"], 2).assign(two_stage_templates())
        b = PlacementPolicy(["w0", "w1"], 2).assign(two_stage_templates())
        assert a.by_stage == b.by_stage

    def test_round_robin_spreads_tasks(self):
        assignment = PlacementPolicy(["w0", "w1", "w2"], 2).assign(
            two_stage_templates(num_maps=6)
        )
        workers = [slot.worker_id for slot in assignment.by_stage[0]]
        assert sorted(set(workers)) == ["w0", "w1", "w2"]
        # Even split: 2 tasks per worker.
        assert all(workers.count(w) == 2 for w in set(workers))

    def test_locality_preference_honoured(self):
        templates = [
            StageTemplate(
                stage_index=0,
                num_tasks=3,
                is_shuffle_map=False,
                locality=["w2", None, "w2"],
            )
        ]
        assignment = PlacementPolicy(["w0", "w1", "w2"], 2).assign(templates)
        workers = [slot.worker_id for slot in assignment.by_stage[0]]
        assert workers[0] == "w2"
        assert workers[2] == "w2"

    def test_locality_ignored_for_dead_worker(self):
        templates = [
            StageTemplate(
                stage_index=0, num_tasks=1, is_shuffle_map=False, locality=["ghost"]
            )
        ]
        assignment = PlacementPolicy(["w0"], 1).assign(templates)
        assert assignment.by_stage[0][0].worker_id == "w0"

    def test_tasks_for_worker(self):
        assignment = PlacementPolicy(["w0", "w1"], 2).assign(two_stage_templates(4, 2))
        mine = assignment.tasks_for_worker("w0")
        theirs = assignment.tasks_for_worker("w1")
        assert len(mine) + len(theirs) == 6
        assert set(mine).isdisjoint(theirs)

    @given(
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(1, 40),
    )
    def test_every_task_placed_on_known_worker(self, n_workers, slots, n_tasks):
        workers = [f"w{i}" for i in range(n_workers)]
        templates = [
            StageTemplate(stage_index=0, num_tasks=n_tasks, is_shuffle_map=False)
        ]
        assignment = PlacementPolicy(workers, slots).assign(templates)
        placed = assignment.by_stage[0]
        assert len(placed) == n_tasks
        assert all(slot.worker_id in workers for slot in placed)
        assert all(0 <= slot.slot < slots for slot in placed)


class TestGroupPlan:
    def test_plan_group_batches(self):
        policy = PlacementPolicy(["w0", "w1"], 2)
        plan = plan_group(0, first_batch=10, group_size=5, policy=policy,
                          stages=two_stage_templates())
        assert plan.batch_indices == (10, 11, 12, 13, 14)
        assert plan.size == 5

    def test_plan_group_rejects_zero(self):
        policy = PlacementPolicy(["w0"], 1)
        with pytest.raises(ValueError):
            plan_group(0, 0, 0, policy, two_stage_templates())

    def test_single_assignment_shared_across_batches(self):
        policy = PlacementPolicy(["w0", "w1"], 2)
        plan = plan_group(0, 0, 3, policy, two_stage_templates())
        # One Assignment object for the whole group - scheduling decisions
        # are computed once (the point of §3.1).
        assert plan.assignment is plan.assignment


def observation(scheduling_s=0.0, task_transfer_s=0.0, wall_s=0.0):
    return GroupObservation(
        first_batch=0,
        batches=1,
        scheduling_s=scheduling_s,
        task_transfer_s=task_transfer_s,
        wall_s=wall_s,
        workers=1,
    )


class TestGroupObservation:
    def test_overhead_fraction(self):
        obs = observation(scheduling_s=0.1, task_transfer_s=0.1, wall_s=1.0)
        assert obs.coordination_s == pytest.approx(0.2)
        assert obs.overhead == pytest.approx(0.2)

    def test_zero_wall_is_zero_overhead(self):
        assert observation().overhead == 0.0

    def test_fraction_capped_at_one(self):
        assert observation(scheduling_s=5.0, wall_s=1.0).overhead == 1.0
