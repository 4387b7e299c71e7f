"""Tests for the chaos soak runner and its CLI.

The fast configurations here (inproc transport, thread executor, few
batches) keep the runs in the tier-1 budget; the CI ``test-chaos`` job
runs the real tcp+process matrix.
"""

import json

import pytest

from repro.chaos import soak
from repro.chaos.injector import ChaosInjector, install, uninstall
from repro.chaos.plan import _PROFILE_TEMPLATES, FaultPlan
from repro.chaos.soak import DEFAULT_PROFILE, SoakSettings, main, run_soak
from repro.dag.dataset import parallelize
from repro.dag.plan import collect_action, compile_plan


def fast_settings(**kwargs):
    defaults = dict(
        workload="wordcount",
        profile="mixed",
        transport="inproc",
        executor="thread",
        workers=3,
        batches=3,
        group_size=3,
        stage_timeout_s=30.0,
    )
    defaults.update(kwargs)
    return SoakSettings(**defaults)


class TestRunSoak:
    def test_seeded_runs_match_baseline(self, tmp_path):
        summary = run_soak(
            fast_settings(), seeds=2, out_dir=str(tmp_path), echo=lambda _: None
        )
        assert summary["ok"] is True
        assert len(summary["results"]) == 2
        for result in summary["results"]:
            assert result["ok"] is True
            # The acceptance bar: every armed run injected something.
            assert result["injected"] >= 1
            assert result["fault_log"]
        written = json.loads((tmp_path / "soak-summary.json").read_text())
        assert written["ok"] is True

    def test_streaming_workload(self):
        summary = run_soak(
            fast_settings(workload="streaming", profile="streaming", batches=4),
            seeds=1,
            echo=lambda _: None,
        )
        assert summary["ok"] is True
        assert summary["results"][0]["injected"] >= 1

    def test_mismatch_dumps_seed_and_fault_log(self, tmp_path, monkeypatch):
        # A workload whose chaos runs disagree with the baseline must fail
        # the soak and leave a reproducible failure file behind.
        def lying_workload(conf, batches, faults):
            if conf.chaos.enabled:
                faults.injected += 1
                faults.log.append("worker_kill @ worker.task hit 1")
                return [["wrong"]]
            return [["right"]]

        monkeypatch.setitem(soak.WORKLOADS, "lying", lying_workload)
        lines = []
        summary = run_soak(
            fast_settings(workload="lying"),
            seeds=1,
            seed_base=5,
            out_dir=str(tmp_path),
            echo=lines.append,
        )
        assert summary["ok"] is False
        assert summary["results"][0]["mismatch"] is True
        failure = json.loads((tmp_path / "soak-failure-seed-5.json").read_text())
        assert failure["seed"] == 5
        assert failure["expected"] == [["right"]]
        assert failure["got"] == [["wrong"]]
        assert failure["fault_log"]
        assert failure["plan"]
        # The printed repro command pins the failing seed.
        assert any("--seed-base 5" in line for line in lines)

    def test_driver_workload_survives_driver_kills(self, tmp_path):
        """The ISSUE 10 acceptance loop in miniature: the driver profile
        kills the driver at journaled transition points and the workload
        recovers from the WAL to the chaos-free baseline."""
        summary = run_soak(
            fast_settings(workload="driver", profile="driver", batches=4),
            seeds=1,
            out_dir=str(tmp_path),
            echo=lambda _: None,
        )
        assert summary["ok"] is True
        result = summary["results"][0]
        assert result["injected"] >= 1
        assert any("driver_kill" in line for line in result["fault_log"])

    def test_keep_going_attempts_every_seed(self, tmp_path, monkeypatch):
        """Default is fail-fast (first mismatch stops the run); with
        keep_going the soak attempts every seed and still reports failure."""

        def lying_workload(conf, batches, faults):
            if conf.chaos.enabled:
                faults.injected += 1
                faults.log.append("worker_kill @ worker.task hit 1")
                return [["wrong"]]
            return [["right"]]

        monkeypatch.setitem(soak.WORKLOADS, "lying", lying_workload)
        fast = run_soak(
            fast_settings(workload="lying"),
            seeds=3,
            out_dir=str(tmp_path / "fast"),
            echo=lambda _: None,
        )
        assert fast["ok"] is False
        assert fast["attempted"] == 1  # stopped at the first failure
        thorough = run_soak(
            fast_settings(workload="lying"),
            seeds=3,
            out_dir=str(tmp_path / "all"),
            echo=lambda _: None,
            keep_going=True,
        )
        assert thorough["ok"] is False
        assert thorough["attempted"] == 3
        assert thorough["keep_going"] is True
        assert thorough["wall_time_s"] >= 0
        for result in thorough["results"]:
            assert result["duration_s"] >= 0

    def test_workload_error_keeps_the_faults_that_fired(self, tmp_path, monkeypatch):
        """A workload that raises after its faults fired (the elastic
        flake's RecoveryBudgetExceeded, say) still reports those faults,
        in the summary and in the failure file."""

        def failing_workload(conf, batches, faults):
            with soak._cluster(conf, faults) as cluster:
                plan = compile_plan(
                    parallelize(batches[0], 4).map(lambda w: (w, 1)), collect_action()
                )
                result = sorted(cluster.run_plan(plan))
                if conf.chaos.enabled:
                    raise RuntimeError("gave up after the faults fired")
            return result

        monkeypatch.setitem(soak.WORKLOADS, "failing", failing_workload)
        lines = []
        summary = run_soak(
            fast_settings(workload="failing"),
            seeds=1,
            seed_base=3,
            out_dir=str(tmp_path),
            echo=lines.append,
        )
        result = summary["results"][0]
        assert result["ok"] is False
        assert "gave up after the faults fired" in result["error"]
        # The mixed profile's guaranteed worker kill fires at the first task.
        assert result["injected"] >= 1
        assert any("worker_kill @ worker.task" in line for line in result["fault_log"])
        assert f"ERROR ({result['injected']} fault(s) injected" in "\n".join(lines)
        failure = json.loads((tmp_path / "soak-failure-seed-3.json").read_text())
        assert failure["fault_log"] == result["fault_log"]

    def test_zero_injected_faults_is_a_failure(self, monkeypatch):
        # Matching output is not enough: an armed run that injected
        # nothing proves nothing, and the soak must say so.
        def quiet_workload(conf, batches, faults):
            return [["same"]]

        monkeypatch.setitem(soak.WORKLOADS, "quiet", quiet_workload)
        summary = run_soak(
            fast_settings(workload="quiet"), seeds=1, echo=lambda _: None
        )
        assert summary["ok"] is False


# Every soak pairing CI runs: each workload with its default profile,
# plus plain wordcount under the workers profile.
_CI_PAIRINGS = sorted(DEFAULT_PROFILE.items()) + [("wordcount", "workers")]


class TestGuaranteedFaultReachability:
    @pytest.mark.parametrize("workload,profile", _CI_PAIRINGS)
    def test_guaranteed_site_is_reached(self, workload, profile):
        """A fault-free run of the soak workload, at CI's default batches
        and schedule, reaches the profile's guaranteed site at least as
        often as any seed's plan needs, so no armed run can end with
        zero faults injected."""
        site, kind = _PROFILE_TEMPLATES[profile]["guaranteed"]
        needed = max(
            min(
                e.at_hit
                for e in FaultPlan.generate(seed, profile)
                if (e.site, e.kind) == (site, kind)
            )
            for seed in range(1000)
        )
        # CI's shape (3 workers, 6 batches, groups of 3) on the fast
        # substrate: the sites counted here do not depend on it.
        settings = fast_settings(workload=workload, profile=profile, batches=6)
        batches = soak._word_batches(
            settings.workers * 1000 + settings.batches, settings.batches
        )
        counter = ChaosInjector(FaultPlan([], profile=profile))
        install(counter)
        try:
            soak.WORKLOADS[workload](
                soak._make_conf(settings, None), batches, soak.FaultTally()
            )
        finally:
            uninstall(counter)
        assert counter._hits.get(site, 0) >= needed


class TestCli:
    def test_soak_subcommand(self, tmp_path, capsys):
        rc = main(
            [
                "soak",
                "--seeds",
                "1",
                "--transport",
                "inproc",
                "--executor",
                "thread",
                "--batches",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "soak-summary.json").exists()
        assert "1/1 seed(s) passed" in capsys.readouterr().out

    def test_plan_subcommand(self, capsys):
        assert main(["plan", "--seed", "3", "--profile", "storage"]) == 0
        out = capsys.readouterr().out
        assert "FaultPlan(seed=3" in out
        assert "block_delete" in out

    def test_profiles_subcommand(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        for profile in ("net", "workers", "storage", "streaming", "mixed", "driver"):
            assert profile in out
