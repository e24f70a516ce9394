"""Tests for the CLI entry point and scenario-params config."""

import json

import pytest

from repro.cli import build_parser, main
from repro.config import ScenarioParams, load_params, save_params
from repro.errors import ConfigError, ExperimentError
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

    def test_obs_dir_writes_per_experiment_and_merged_artifacts(self, tmp_path):
        from repro.obs.validate import validate_artifact_dir

        obs_dir = tmp_path / "obs"
        outputs = run_all(["handshake"], obs_dir=str(obs_dir))
        assert list(outputs) == ["handshake"]
        # one sub-directory per experiment, plus the merged roll-up
        assert not validate_artifact_dir(obs_dir / "handshake")
        assert not validate_artifact_dir(obs_dir)
        manifest = json.loads((obs_dir / "manifest.json").read_text())
        assert manifest["merged_from"] == ["handshake"]


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

    @pytest.mark.parametrize("value", ["lots", "-3"])
    def test_bad_workers_value_exits_cleanly(self, value):
        # A usage error, not an ExperimentError traceback from run_all.
        with pytest.raises(SystemExit, match="--workers must be"):
            main(["fig5", "--workers", value])


class TestScenarioParams:
    def test_defaults_valid(self):
        params = ScenarioParams()
        assert params.n_networks == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_networks": 0},
            {"devices_per_network": -1},
            {"t_measure_s": 0.0},
            {"duration_s": -5.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioParams(**kwargs)

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "params.json"
        params = ScenarioParams(seed=9, n_networks=3, duration_s=12.0)
        save_params(params, path)
        assert load_params(path) == params

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"seed": 1, "bogus": True}))
        with pytest.raises(ConfigError):
            load_params(path)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_params(path)
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_params(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_params(tmp_path / "absent.json")
