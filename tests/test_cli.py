import json
import os
import subprocess
import sys

import pytest

import koopext
from koopext.cli import main
from koopext.core import ConfigurationError
from koopext.experiments import ExperimentConfig, default_params, run


def run_cli(args):
    return main(list(args))


def run_cli_process(*args):
    # the child imports the koopext these tests import, whether or not
    # PYTHONPATH names it
    src = os.path.dirname(os.path.dirname(koopext.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "koopext.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


class TestExitCodes:
    def test_usage_error_on_unknown_flag(self):
        proc = run_cli_process("lin5d_check", "--nosuchflag")
        assert proc.returncode == 2

    def test_usage_error_on_missing_config(self, tmp_path):
        code = run_cli(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_removed_threads_flag_is_a_usage_error(self, tmp_path):
        assert run_cli(["lin5d_check", "--out", str(tmp_path), "--threads", "2"]) == 2

    def test_phase_rejects_config_and_seed(self, tmp_path):
        # phase reads neither flag, so argparse refuses both
        assert run_cli(["phase", "--config", str(tmp_path / "x.json"), "--seed", "5",
                        "--grid", "-1", "1", "0.5", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "phase.csv").exists()

    def test_tool_rejects_config(self, tmp_path, capsys):
        assert run_cli(["eig", "--config", str(tmp_path / "x.json"),
                        "--model", str(tmp_path / "model"), "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_removed_bridge_subcommand_is_a_usage_error(self, tmp_path):
        # bridge1d is the one way to run the bridge study
        assert run_cli(["bridge", "--out", str(tmp_path)]) == 2

    def test_param_without_a_value_is_a_usage_error(self, tmp_path):
        assert run_cli(["lin5d_check", "--out", str(tmp_path), "--param", "n_pairs"]) == 2

    def test_laplace_step_longer_than_the_horizon_is_a_usage_error(self, tmp_path, capsys):
        # T rounds up to one period (about 6.3), under half of step = 13
        code = run_cli(["vdp_phase", "--out", str(tmp_path),
                        "--param", "T=1", "--param", "step=13"])
        assert code == 2
        assert "rounds to 0 steps" in capsys.readouterr().err

    def test_laplace_horizon_error_names_the_given_and_the_rounded_T(self, tmp_path, capsys):
        code = run_cli(["vdp_phase", "--out", str(tmp_path),
                        "--param", "T=1", "--param", "step=13"])
        assert code == 2
        # the T the user gave, then the whole period it was rounded up to
        assert "horizon T = 1, rounded to whole periods 6.31844," in capsys.readouterr().err

    def test_usage_error_on_unknown_config_key(self, tmp_path, capsys):
        # a config written before `threads` and `format` were dropped
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"experiment": "lin5d_check", "seed": 1,
                                    "out_dir": str(tmp_path), "format": "csv",
                                    "threads": 1, "params": {}}))
        assert run_cli(["run", "--config", str(path)]) == 2
        assert "['format', 'threads']" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_success_exit_zero(self, tmp_path):
        code = run_cli(["lin5d_check", "--out", str(tmp_path), "--seed", "1"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_pass"] is True
        assert all({"name", "value", "threshold", "pass"} <= set(c) for c in summary["criteria"])

    def test_numeric_failure_exit_one(self, tmp_path):
        # an unconverged averaging horizon leaves the eigen-relation residual
        # above threshold: the run completes but reports a numeric failure
        cfg = ExperimentConfig(
            experiment="vdp_phase",
            seed=1,
            out_dir=str(tmp_path),
            params={**default_params("vdp_phase"), "T": 2.0, "grid_h": 0.4, "band": 0.4},
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        code = run_cli(["run", "--config", str(path)])
        assert code == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_pass"] is False


class TestDeterminism:
    def test_same_seed_byte_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["polar_transforms", "--out", str(out1), "--seed", "9"]) == 0
        assert run_cli(["polar_transforms", "--out", str(out2), "--seed", "9"]) == 0
        f1 = (out1 / "mapped_trajectory.csv").read_bytes()
        f2 = (out2 / "mapped_trajectory.csv").read_bytes()
        assert f1 == f2
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["criteria"] == s2["criteria"]


class TestConfig:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="vdp_phase",
            seed=11,
            out_dir="somewhere",
            params={"mu": 0.3, "grid_h": 0.125, "band": 0.55},
        )
        path = tmp_path / "cfg.json"
        cfg.to_json(path)
        back = ExperimentConfig.from_json(path)
        assert back == cfg
        back.to_json(tmp_path / "cfg2.json")
        assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "cfg2.json").read_bytes()

    def test_unknown_keys_raise_a_configuration_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "lin5d_check", "threads": 4, "colour": 1}))
        with pytest.raises(ConfigurationError, match=r"\['colour', 'threads'\]"):
            ExperimentConfig.from_json(path)

    def test_config_without_an_experiment_raises_a_configuration_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ConfigurationError, match="no experiment"):
            ExperimentConfig.from_json(path)

    def test_param_override(self, tmp_path):
        code = run_cli([
            "lin5d_check", "--out", str(tmp_path), "--seed", "1",
            "--param", "n_pairs=200", "--param", "grid_n=11",
        ])
        assert code == 0
        cfg = json.loads((tmp_path / "config.json").read_text())
        assert cfg["params"]["n_pairs"] == 200
        # no `threads` or `format`: nothing read them
        assert sorted(cfg) == ["experiment", "out_dir", "params", "schema_version", "seed"]

    def test_help_lists_defaults(self):
        proc = run_cli_process("softplus_edmd", "--help")
        assert proc.returncode == 0
        assert "bandwidth" in proc.stdout
        assert "0.7" in proc.stdout


class TestToolSubcommands:
    def test_simulate_fit_eig_pipeline(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["simulate", "--system", "linear2d", "--n-pairs", "100",
                        "--dt", "0.2", "--out", out, "--seed", "4"]) == 0
        assert run_cli(["fit", "--snapshots", os.path.join(out, "snapshots"),
                        "--dict", "identity", "--out", out]) == 0
        assert run_cli(["eig", "--model", os.path.join(out, "model"),
                        "--n", "2", "--out", out]) == 0
        spectrum = json.loads((tmp_path / "spectrum.json").read_text())
        lams = sorted(row["re"] for row in spectrum)
        import math

        assert abs(lams[0] - math.exp(-0.18)) < 1e-6
        assert abs(lams[1] - math.exp(-0.16)) < 1e-6

    def test_eig_and_extend_default_to_at_most_the_model_dimension(self, tmp_path, capsys):
        out = str(tmp_path)
        model = os.path.join(out, "model")
        assert run_cli(["simulate", "--system", "linear2d", "--n-pairs", "100",
                        "--out", out, "--seed", "4"]) == 0
        assert run_cli(["fit", "--snapshots", os.path.join(out, "snapshots"),
                        "--out", out]) == 0
        assert run_cli(["eig", "--model", model, "--out", out]) == 0
        assert len(json.loads((tmp_path / "spectrum.json").read_text())) == 2
        extend = ["extend", "--model", model, "--system", "linear2d",
                  "--grid", "-1", "1", "0.25", "--p-max", "4", "--out", out]
        assert run_cli(extend) == 0
        assert len(json.loads((tmp_path / "extension_report.json").read_text())) == 2
        capsys.readouterr()
        # an explicit count above the dimension is still refused
        assert run_cli(["eig", "--model", model, "--n", "3", "--out", out]) == 2
        assert "asked for 3 eigenpairs of a 2x2 matrix" in capsys.readouterr().err
        assert run_cli([*extend, "--n", "3"]) == 2
        assert "asked for 3 eigenpairs of a 2-dim model" in capsys.readouterr().err

    def test_phase_tool(self, tmp_path):
        assert run_cli(["phase", "--system", "polarLC", "--method", "analytic",
                        "--grid", "-1.5", "1.5", "0.25", "--out", str(tmp_path)]) == 0
        header = (tmp_path / "phase.csv").read_text().splitlines()[0]
        assert header == "x1,x2,abs,arg,singular"


class TestExtendTool:
    def test_extend_pipeline_reports_certified_powers(self, tmp_path):
        out = str(tmp_path)
        assert run_cli(["simulate", "--system", "linear2d", "--n-pairs", "200",
                        "--dt", "0.2", "--out", out, "--seed", "2"]) == 0
        assert run_cli(["fit", "--snapshots", os.path.join(out, "snapshots"),
                        "--dict", "identity", "--out", out]) == 0
        assert run_cli(["extend", "--model", os.path.join(out, "model"),
                        "--system", "linear2d", "--n", "2", "--epsilon", "0.1",
                        "--grid", "-1", "1", "0.05", "--p-max", "10",
                        "--out", out]) == 0
        report = json.loads((tmp_path / "extension_report.json").read_text())
        assert len(report) == 2
        for entry in report:
            assert entry["extensions"], "every pair should certify at least p=1"
            for ext in entry["extensions"]:
                assert ext["bound"] <= 0.1 * (1 + 1e-9)
