"""Tests for the CLI entry point and the experiment runner."""

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ExperimentError
from repro.experiments.runner import EXPERIMENTS, run_all


class TestRunner:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_all(["not-an-experiment"])

    def test_selected_subset_runs(self):
        outputs = run_all(["handshake"])
        assert list(outputs) == ["handshake"]
        assert "T_handshake" in outputs["handshake"]

    def test_registry_names_are_stable(self):
        assert {"fig5", "fig6", "handshake"} <= set(EXPERIMENTS)

    def test_obs_dir_writes_one_folded_artifact(self, tmp_path):
        from repro.obs.artifacts import FILES
        from repro.obs.validate import validate_artifact_dir

        obs_dir = tmp_path / "obs"
        outputs = run_all(["handshake"], obs_dir=str(obs_dir))
        assert list(outputs) == ["handshake"]
        # The experiment's worlds fold into obs_dir itself: no sub-directory.
        assert sorted(p.name for p in obs_dir.iterdir()) == sorted(FILES)
        assert not validate_artifact_dir(obs_dir)
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert len(manifest["runs"]) > 1
        assert {run["part"] for run in manifest["runs"]} == {0}


class TestCli:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "fig6" in out

    def test_run_single_experiment(self, capsys):
        assert main(["handshake"]) == 0
        out = capsys.readouterr().out
        assert "=== handshake" in out
        assert "T_handshake" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiments == []
        assert not args.list

    def test_validate_exits_1_when_any_claim_fails(self, capsys, monkeypatch):
        from repro.experiments import validate

        def crash():
            raise RuntimeError("boom")

        monkeypatch.setattr(validate, "CHECKS", {
            "ok": lambda: validate.CheckResult("ok", True, "held"),
            "bad": lambda: validate.CheckResult("bad", False, "missed: x < 1"),
            "crash": crash,
        })
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] ok: held" in out
        assert "[FAIL] bad: missed: x < 1" in out
        assert "[FAIL] crash: crashed: RuntimeError('boom')" in out
        assert "1/3 claims hold" in out

    def test_validate_exits_0_when_every_claim_holds(self, capsys, monkeypatch):
        from repro.experiments import validate

        monkeypatch.setattr(validate, "CHECKS", {
            "ok": lambda: validate.CheckResult("ok", True, "held"),
        })
        assert main(["validate"]) == 0
        assert "1/1 claims hold" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["lots", "-3"])
    def test_bad_workers_value_exits_cleanly(self, value):
        # A usage error, not an ExperimentError traceback from run_all.
        with pytest.raises(SystemExit, match="--workers must be"):
            main(["fig5", "--workers", value])
