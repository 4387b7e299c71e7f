"""Tests for the `python -m repro.bench` report generator CLI."""

import pytest

from repro.bench.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4a", "fig7", "table2", "ablation-treereduce"):
            assert name in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_only_runs_subset(self, capsys):
        assert main(["--only", "ablation-treereduce"]) == 0
        out = capsys.readouterr().out
        assert "tree-reduce-aware" in out
        assert "Fig 6a" not in out

    def test_markdown_output(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        assert main(["--only", "ablation-treereduce", "--markdown", str(target)]) == 0
        text = target.read_text()
        assert text.startswith("# Reproduced experiments")
        assert "tree-reduce-aware" in text

    def test_every_experiment_registered_once(self):
        names = [name for name, _fn in EXPERIMENTS]
        assert len(names) == len(set(names))
        # One entry per reproduced table/figure + the four ablation/tuning
        # studies.
        for required in (
            "table2", "fig4a", "fig4b", "fig5a", "fig5b", "fig6a", "fig6b",
            "fig7", "fig8a", "fig8b", "fig9", "tuning",
        ):
            assert required in names


class TestErrorTypes:
    def test_fetch_failed_attributes(self):
        from repro.common.errors import FetchFailed, RecoverableError

        err = FetchFailed(3, 7, "worker-1")
        assert err.shuffle_id == 3
        assert err.map_index == 7
        assert err.worker_id == "worker-1"
        assert isinstance(err, RecoverableError)

    def test_worker_lost_attributes(self):
        from repro.common.errors import RecoverableError, WorkerLost

        err = WorkerLost("worker-9", "heartbeat timeout")
        assert err.worker_id == "worker-9"
        assert "heartbeat timeout" in str(err)
        assert isinstance(err, RecoverableError)

    def test_task_error_wraps_cause(self):
        from repro.common.errors import ReproError, TaskError

        cause = ValueError("boom")
        err = TaskError("j0.s0.p0", cause)
        assert err.cause is cause
        assert err.task_id == "j0.s0.p0"
        assert isinstance(err, ReproError)

    def test_hierarchy(self):
        from repro.common import errors

        for name in (
            "ConfigError", "PlanError", "RecoverableError", "CheckpointError",
            "SimulationError", "StreamingError", "TaskError",
        ):
            assert issubclass(getattr(errors, name), errors.ReproError)
