"""Unit tests for the chaos layer itself: plan generation determinism and
the process-global injector (exact-hit firing, kill budget, metrics)."""

import pytest

from repro.chaos.injector import ChaosInjector, active, chaos_hit, install, uninstall
from repro.chaos.plan import (
    ALL_SITES,
    KIND_DIAL_REFUSE,
    KIND_NET_DROP,
    KIND_NET_GARBLE,
    KIND_WORKER_KILL,
    SITE_BLOCKS_FETCH,
    SITE_DRIVER,
    SITE_ELASTIC_RESIZE,
    SITE_EXEC_COMPUTE,
    SITE_STREAM_CHECKPOINT,
    SITE_STREAM_GROUP,
    SITE_WORKER_TASK,
    FaultEvent,
    FaultPlan,
    _PROFILE_TEMPLATES,
)
from repro.common.config import CHAOS_PROFILES
from repro.common.errors import ConfigError, ReproError
from repro.common.metrics import (
    COUNT_CHAOS_INJECTED,
    COUNT_CHAOS_SUPPRESSED,
    MetricsRegistry,
)

# Which sites each profile may touch (mirrors the template tables).
_PROFILE_SITES = {
    "net": {"net.dial", "net.call", "net.frame", "net.serve"},
    "workers": {SITE_WORKER_TASK, SITE_EXEC_COMPUTE},
    "storage": {SITE_BLOCKS_FETCH, SITE_WORKER_TASK},
    "streaming": {
        SITE_STREAM_CHECKPOINT,
        SITE_STREAM_GROUP,
        SITE_WORKER_TASK,
        SITE_EXEC_COMPUTE,
    },
    "elastic": {
        SITE_ELASTIC_RESIZE,
        SITE_WORKER_TASK,
        SITE_STREAM_GROUP,
        SITE_EXEC_COMPUTE,
    },
    "driver": {SITE_DRIVER, SITE_EXEC_COMPUTE},
    "mixed": set(ALL_SITES)
    - {SITE_STREAM_CHECKPOINT, SITE_STREAM_GROUP, SITE_ELASTIC_RESIZE, SITE_DRIVER},
}


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        a = FaultPlan.generate(42, "mixed")
        b = FaultPlan.generate(42, "mixed")
        assert list(a) == list(b)

    def test_seed_changes_plan(self):
        plans = [list(FaultPlan.generate(s, "mixed")) for s in range(6)]
        assert any(p != plans[0] for p in plans[1:])

    @pytest.mark.parametrize("profile", CHAOS_PROFILES)
    def test_profiles_only_use_their_sites(self, profile):
        for seed in range(8):
            plan = FaultPlan.generate(seed, profile)
            assert {e.site for e in plan} <= _PROFILE_SITES[profile]

    @pytest.mark.parametrize("profile", CHAOS_PROFILES)
    def test_guaranteed_early_event(self, profile):
        # Every plan schedules its profile's guaranteed fault on the
        # site's first hit, so armed runs always inject (the soak test
        # checks each workload reaches that site).
        site, kind = _PROFILE_TEMPLATES[profile]["guaranteed"]
        for seed in range(8):
            plan = FaultPlan.generate(seed, profile)
            assert any((e.site, e.kind, e.at_hit) == (site, kind, 1) for e in plan)

    def test_intensity_scales_event_count(self):
        assert len(FaultPlan.generate(0, "mixed", intensity=0.1)) == 1
        assert len(FaultPlan.generate(0, "mixed", intensity=1.0)) == 6
        assert len(FaultPlan.generate(0, "mixed", intensity=2.0)) == 12

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="profile"):
            FaultPlan.generate(0, "nope")

    def test_bad_intensity_rejected(self):
        with pytest.raises(ConfigError, match="intensity"):
            FaultPlan.generate(0, "mixed", intensity=0)

    def test_budget_burning_kinds_capped(self):
        for seed in range(20):
            plan = FaultPlan.generate(seed, "mixed", intensity=3.0)
            kinds = [e.kind for e in plan]
            assert kinds.count(KIND_NET_DROP) <= 2
            assert kinds.count(KIND_DIAL_REFUSE) <= 2
            assert kinds.count(KIND_NET_GARBLE) <= 2

    def test_one_fault_per_exact_hit(self):
        for seed in range(20):
            plan = FaultPlan.generate(seed, "mixed", intensity=2.0)
            pairs = [(e.site, e.at_hit) for e in plan]
            assert len(pairs) == len(set(pairs))

    def test_describe_names_every_event(self):
        plan = FaultPlan.generate(7, "storage")
        text = plan.describe()
        assert "seed=7" in text
        for event in plan:
            assert event.kind in text


class TestChaosInjector:
    def test_fires_on_exact_hit_only(self):
        event = FaultEvent(0, "site", "net_delay", at_hit=3, param=0.05)
        inj = ChaosInjector(FaultPlan([event]))
        assert inj.hit("site") is None
        assert inj.hit("site") is None
        assert inj.hit("site") is event
        assert inj.hit("site") is None
        assert inj.injected_count == 1
        assert "net_delay @ site hit 3" in inj.fault_log()[0]

    def test_other_sites_do_not_consume_hits(self):
        event = FaultEvent(0, "a", "net_delay", at_hit=1)
        inj = ChaosInjector(FaultPlan([event]))
        assert inj.hit("b") is None
        assert inj.hit("a") is event

    def test_metrics_counted_per_kind(self):
        metrics = MetricsRegistry()
        inj = ChaosInjector(
            FaultPlan([FaultEvent(0, "s", "block_delete", at_hit=1)]),
            metrics=metrics,
        )
        inj.hit("s", target="worker-1")
        assert metrics.counter(COUNT_CHAOS_INJECTED).value == 1
        assert metrics.counter("chaos.block_delete").value == 1

    def test_kill_budget_suppresses_extra_kills(self):
        metrics = MetricsRegistry()
        plan = FaultPlan(
            [
                FaultEvent(0, "s", KIND_WORKER_KILL, at_hit=1),
                FaultEvent(1, "s", KIND_WORKER_KILL, at_hit=2),
            ]
        )
        inj = ChaosInjector(plan, metrics=metrics, kill_budget=1)
        assert inj.hit("s") is not None
        assert inj.hit("s") is None  # budget spent: suppressed
        assert inj.injected_count == 1
        assert metrics.counter(COUNT_CHAOS_SUPPRESSED).value == 1
        assert any(log.startswith("SUPPRESSED") for log in inj.fault_log())

    def test_install_uninstall_lifecycle(self):
        inj = ChaosInjector(FaultPlan([FaultEvent(0, "s", "net_delay", at_hit=1)]))
        other = ChaosInjector(FaultPlan([]))
        assert chaos_hit("s") is None  # disarmed: free no-op
        install(inj)
        try:
            assert active() is inj
            install(inj)  # re-installing the same injector is fine
            with pytest.raises(ReproError, match="already installed"):
                install(other)
            assert chaos_hit("s") is not None
        finally:
            uninstall(other)  # not active: no-op
            assert active() is inj
            uninstall(inj)
        assert active() is None
        assert chaos_hit("s") is None
