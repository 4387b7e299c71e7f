"""Tests for the AIMD group-size tuner (§3.4)."""

import pytest
from hypothesis import given, strategies as st

from repro.common.config import TunerConf
from repro.core.groups import GroupObservation
from repro.core.tuner import GroupSizeTuner


def make_tuner(initial=10, lower=0.05, upper=0.2, **kwargs) -> GroupSizeTuner:
    conf = TunerConf(
        enabled=True,
        overhead_lower_bound=lower,
        overhead_upper_bound=upper,
        **kwargs,
    )
    return GroupSizeTuner(conf, initial_group_size=initial)


def group(coordination_s, wall_s) -> GroupObservation:
    return GroupObservation(
        first_batch=0,
        batches=1,
        scheduling_s=coordination_s,
        task_transfer_s=0.0,
        wall_s=wall_s,
        workers=1,
    )


class TestAimdBehavior:
    def test_high_overhead_multiplicative_increase(self):
        tuner = make_tuner(initial=10)
        decision = tuner.observe(group(0.5, 1.0))
        assert decision.action == "increase"
        assert decision.new_group_size == 20  # x increase_factor (2.0)

    def test_low_overhead_additive_decrease(self):
        tuner = make_tuner(initial=10)
        decision = tuner.observe(group(0.001, 1.0))
        assert decision.action == "decrease"
        assert decision.new_group_size == 8  # minus DECREASE_STEP (2)

    def test_in_band_holds(self):
        tuner = make_tuner(initial=10)
        decision = tuner.observe(group(0.1, 1.0))
        assert decision.action == "hold"
        assert decision.new_group_size == 10

    def test_bounded_below(self):
        tuner = make_tuner(initial=1)
        for _ in range(5):
            decision = tuner.observe(group(0.0, 1.0))
        assert decision.new_group_size == 1

    def test_bounded_above(self):
        tuner = make_tuner(initial=900)
        for _ in range(5):
            decision = tuner.observe(group(0.9, 1.0))
        assert decision.new_group_size == 1000  # max_group_size default

    def test_increase_always_moves_when_unclamped(self):
        tuner = make_tuner(initial=1, increase_factor=1.4)
        decision = tuner.observe(group(0.9, 1.0))
        # round(1 * 1.4) == 1, but an increase must make progress.
        assert decision.new_group_size == 2

    def test_converges_into_band(self):
        # Coordination cost fixed per group; execution scales with group
        # size, so overhead ~ c / (c + g*e): growing g lowers overhead.
        tuner = make_tuner(initial=1)
        coord = 0.2
        exec_per_batch = 0.1
        for _ in range(40):
            g = tuner.group_size
            tuner.observe(group(coord, coord + g * exec_per_batch))
        overhead = coord / (coord + tuner.group_size * exec_per_batch)
        assert overhead <= 0.25  # settles at/below the upper bound region
        assert tuner.group_size >= 8

    def test_reacts_to_environment_change(self):
        tuner = make_tuner(initial=1)
        for _ in range(30):
            tuner.observe(group(0.2, 0.2 + tuner.group_size * 0.1))
        big = tuner.group_size
        # Coordination suddenly becomes cheap (smaller cluster): the tuner
        # should decrease the group size to regain adaptability.
        for _ in range(60):
            tuner.observe(group(0.0005, 0.0005 + tuner.group_size * 0.1))
        assert tuner.group_size < big

    def test_ewma_damps_single_spike(self):
        tuner = make_tuner(initial=10, ewma_alpha=0.1)
        for _ in range(10):
            tuner.observe(group(0.1, 1.0))  # in-band steady state
        decision = tuner.observe(group(0.9, 1.0))  # one GC-like spike
        assert decision.action == "hold"  # smoothed value still in band
        assert tuner.group_size == 10


class TestValidation:
    def test_total_time_positive(self):
        tuner = make_tuner()
        with pytest.raises(ValueError):
            tuner.observe(group(0.1, 0.0))

    def test_negative_coordination_rejected(self):
        tuner = make_tuner()
        with pytest.raises(ValueError):
            tuner.observe(group(-0.1, 1.0))

    def test_initial_clamped_to_bounds(self):
        conf = TunerConf(enabled=True, min_group_size=5, max_group_size=50)
        assert GroupSizeTuner(conf, initial_group_size=1).group_size == 5
        assert GroupSizeTuner(conf, initial_group_size=500).group_size == 50

    def test_overhead_capped_at_one(self):
        tuner = make_tuner()
        decision = tuner.observe(group(5.0, 1.0))
        assert decision.observed_overhead == 1.0


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0.01, 10)), min_size=1, max_size=80
        )
    )
    def test_group_size_always_in_bounds(self, observations):
        tuner = make_tuner(initial=10)
        for coord, total in observations:
            tuner.observe(group(coord, total))
            assert 1 <= tuner.group_size <= 1000

    @given(st.floats(0.21, 1.0), st.integers(1, 400))
    def test_above_upper_never_decreases(self, overhead, initial):
        tuner = make_tuner(initial=initial, ewma_alpha=1.0)
        before = tuner.group_size
        decision = tuner.observe(group(overhead, 1.0))
        assert decision.new_group_size >= before

    @given(st.floats(0.0, 0.049), st.integers(1, 400))
    def test_below_lower_never_increases(self, overhead, initial):
        tuner = make_tuner(initial=initial, ewma_alpha=1.0)
        before = tuner.group_size
        decision = tuner.observe(group(overhead, 1.0))
        assert decision.new_group_size <= before

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=50))
    def test_history_records_every_observation(self, overheads):
        tuner = make_tuner()
        for o in overheads:
            tuner.observe(group(o, 1.0))
        assert len(tuner.history) == len(overheads)
