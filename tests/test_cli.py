import inspect
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import koopext
from koopext.cli import build_parser, main
from koopext import core
from koopext.core import ConfigurationError, _Domain, _json_type, numpy_openblas
from koopext.experiments import EXPERIMENTS, ExperimentConfig, run

from artifact_digests import (
    GOLDEN_CONFIGS,
    GOLDEN_PATH,
    TOOL_CHAIN_LABEL,
    digests,
    environment,
    file_digests,
    label,
    manifest_changes,
    tool_chain_digests,
)
from domain_edges import NOT_FINITE, OUTSIDE


@pytest.fixture(scope="module")
def rerun_digests():
    """Artifact digests of one run per config, shared by the tests that
    compare against it."""
    memo = {}

    def get(experiment, seed, params):
        key = label(experiment, seed, params)
        if key not in memo:
            memo[key] = digests(experiment, seed, params)
        return memo[key]

    return get


def run_cli(args):
    return main(list(args))


def edit_sidecar(path, entries: dict) -> None:
    """Set each of `entries` in the JSON object at `path`; a None deletes the key."""
    meta = json.loads(path.read_text())
    for key, value in entries.items():
        if value is None:
            del meta[key]
        else:
            meta[key] = value
    path.write_text(json.dumps(meta))


def defaults(experiment: str) -> dict:
    """Each parameter's default, read off the runner's table."""
    return {key: default for key, (default, _) in EXPERIMENTS[experiment][1]().items()}


# the array-valued domains, which the hand-kept rows cover
ARRAY_KINDS = {
    "two finite numbers [x, y]",
    "two finite numbers [lo, hi] with lo < hi",
    "two corners [[x_lo, y_lo], [x_hi, y_hi]] of finite numbers with lo < hi",
    "a non-empty array of finite positive numbers",
}
# a value of each JSON type
SAMPLES = {"boolean": True, "integer": 2, "number": 0.5, "string": "x", "array": [],
           "object": {}, "null": None}


def shown(value):
    """A test id for `value`, short for the 400-digit integer."""
    return "10**400" if value == 10**400 else None


def assert_matches_golden(run_label: str, got: dict) -> None:
    """Fail naming every file whose digest differs from the manifest's entry
    for `run_label`, and every environment difference that could explain it."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    want = golden["runs"][run_label]
    if got != want:
        env = environment()
        differs = {key: {"manifest": golden["environment"].get(key), "here": env[key]}
                   for key in env if golden["environment"].get(key) != env[key]}
        changed = sorted(name for name in set(got) | set(want)
                         if got.get(name) != want.get(name))
        pytest.fail(f"{changed} differ from {os.path.basename(GOLDEN_PATH)}; "
                    f"environment differences: {differs or 'none'}")


def child_env() -> dict:
    # the child imports the koopext these tests import, whether or not
    # PYTHONPATH names it
    src = os.path.dirname(os.path.dirname(koopext.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_cli_process(*args):
    return subprocess.run(
        [sys.executable, "-m", "koopext.cli", *args],
        capture_output=True, text=True, env=child_env(),
    )


def run_python(code: str):
    """The JSON that `code` prints when run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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

    def test_experiment_subcommand_rejects_config(self, tmp_path, capsys):
        # `run --config` is the one config entry; the subcommand used to run
        # whatever the file named and drop --out, --seed and --param
        path = tmp_path / "c.json"
        ExperimentConfig("polar_transforms", out_dir=str(tmp_path / "c")).to_json(path)
        assert run_cli(["lin5d_check", "--config", str(path), "--out", str(tmp_path / "b"),
                        "--seed", "1", "--param", "n_pairs=200"]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "b").exists() and not (tmp_path / "c").exists()

    def test_tool_rejects_config(self, tmp_path, capsys):
        assert run_cli(["eig", "--config", str(tmp_path / "x.json"),
                        "--model", str(tmp_path / "model"), "--out", str(tmp_path)]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_removed_bridge_subcommand_is_a_usage_error(self, tmp_path):
        # bridge1d is the one way to run the bridge study
        assert run_cli(["bridge", "--out", str(tmp_path)]) == 2

    def test_param_without_a_value_is_a_usage_error(self, tmp_path):
        assert run_cli(["lin5d_check", "--out", str(tmp_path), "--param", "n_pairs"]) == 2

    def test_unknown_param_is_a_usage_error_that_names_it(self, tmp_path, capsys):
        assert run_cli(["lin5d_check", "--out", str(tmp_path), "--param", "typo=3"]) == 2
        assert "['typo']" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

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

    @pytest.mark.parametrize("param, named", [
        ("band=0", "band = 0 keeps no grid point"),
        ("band=-1", "band = -1 keeps no grid point"),
    ])
    def test_vdp_phase_refuses_a_criterion_over_nothing(self, tmp_path, capsys, param, named):
        # each used to exit 3 on a zero-size reduction; whether a band keeps a
        # point depends on the cycle, so it is refused at run time
        assert run_cli(["vdp_phase", "--out", str(tmp_path), "--param", param]) == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("experiment, param, named", [
        ("linear2d_dmd", "grid_hi=-1", "grid box needs hi > lo on every axis, "
                                       "got lo = (-1.0, -1.0), hi = (-1.0, -1.0)"),
        ("linear2d_dmd", "grid_lo=2", "grid box needs hi > lo on every axis, "
                                      "got lo = (2.0, 2.0), hi = (1.0, 1.0)"),
        ("softplus_edmd", "grid_hi=1.0", "grid box needs hi > lo on every axis, "
                                         "got lo = (1.0, 1.0), hi = (1.0, 1.0)"),
        ("saddle_fields", "grid_hi=-0.7", "grid box needs hi > lo on every axis, "
                                          "got lo = (-0.7, -0.7), hi = (-0.7, -0.7)"),
    ])
    def test_runner_refuses_an_input_it_cannot_score(self, tmp_path, capsys, experiment,
                                                     param, named):
        # a relation between two parameters is the contract of the library
        # call that takes both, here EvalGrid, so config.json is written
        # first; a grid of no width scored every criterion on one point
        assert run_cli([experiment, "--out", str(tmp_path), "--param", param]) == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_grid_over_the_point_cap_is_a_usage_error(self, tmp_path, capsys):
        # a box this wide asked EvalGrid for 4e20 points and exited 3 on a
        # MemoryError; the count is refused before any array is made
        assert run_cli(["saddle_fields", "--out", str(tmp_path),
                        "--param", "grid_lo=-1e9"]) == 2
        assert ("error: grid of 400000001320000001089 points is over the 10000000-point cap"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("experiment, param, named", [
        ("vdp_phase", "T=1e300", "horizon T = 1e+300, rounded to whole periods 1e+300, "
                                 "takes 3.165e+301 steps of step = 0.0315922, over the "
                                 "1000000-step cap"),
        ("vdp_phase", "step=1e-300", "horizon T = 50 periods, rounded to whole periods "
                                     "315.922, takes 3.159e+302 steps of step = 1e-300, "
                                     "over the 1000000-step cap"),
        ("linear2d_dmd", "euler_step=1e-300", "euler flow of 2e+299 steps (dt 0.2 / step "
                                              "1e-300) is over the 1000000-step cap"),
    ])
    def test_flow_over_the_step_cap_is_a_usage_error(self, tmp_path, capsys, experiment,
                                                     param, named):
        # each of these spun for ever on a finite horizon or step; the count is
        # refused before the flow that would take those steps starts, and
        # linear2d_dmd, which builds its Euler map first, writes no model files
        assert run_cli([experiment, "--out", str(tmp_path), "--param", param]) == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("experiment, param, named", [
        ("bridge1d", "window=[]", "window must be two finite numbers [lo, hi] with lo < hi, "
                                  "got []"),
        ("bridge1d", "window=[2.5]", "window must be two finite numbers [lo, hi] with lo < hi, "
                                     "got [2.5]"),
        ("bridge1d", "window=[2,2.5,3]", "window must be two finite numbers [lo, hi] with "
                                         "lo < hi, got [2, 2.5, 3]"),
        ("bridge1d", 'window=["2","3"]', "window must be two finite numbers [lo, hi] with "
                                         'lo < hi, got ["2", "3"]'),
        ("bridge1d", "window=[true,3]", "window must be two finite numbers [lo, hi] with "
                                        "lo < hi, got [true, 3]"),
        ("bridge1d", "window=[3,2]", "window must be two finite numbers [lo, hi] with lo < hi, "
                                     "got [3, 2]"),
        ("bridge1d", "window=[2.5,2.5]", "window must be two finite numbers [lo, hi] with "
                                         "lo < hi, got [2.5, 2.5]"),
        ("bridge1d", "window=[2.25,Infinity]", "window must be two finite numbers [lo, hi] with "
                                               "lo < hi, got [2.25, Infinity]"),
        ("duffing_edmd", "window=[]", "window must be two corners [[x_lo, y_lo], [x_hi, y_hi]] "
                                      "of finite numbers with lo < hi, got []"),
        ("duffing_edmd", "window=[[2,-1.33],[-2,1.3]]", "window must be two corners "
                                                        "[[x_lo, y_lo], [x_hi, y_hi]] of finite "
                                                        "numbers with lo < hi, got "
                                                        "[[2, -1.33], [-2, 1.3]]"),
        ("duffing_edmd", "window=[1,2]", "window must be two corners [[x_lo, y_lo], "
                                         "[x_hi, y_hi]] of finite numbers with lo < hi, "
                                         "got [1, 2]"),
        ("duffing_edmd", "window=[[-2,-1.33],[Infinity,1.3]]",
         "window must be two corners [[x_lo, y_lo], [x_hi, y_hi]] of finite numbers with "
         "lo < hi, got [[-2, -1.33], [Infinity, 1.3]]"),
        ("vdp_phase", "x0_cycle=[]", "x0_cycle must be two finite numbers [x, y], got []"),
        ("vdp_phase", "x0_cycle=[1.0]", "x0_cycle must be two finite numbers [x, y], got [1.0]"),
        ("vdp_phase", 'x0_cycle=[1,"0"]', "x0_cycle must be two finite numbers [x, y], "
                                          'got [1, "0"]'),
        ("vdp_phase", "x0_cycle=[NaN,0]", "x0_cycle must be two finite numbers [x, y], "
                                          "got [NaN, 0]"),
        ("linear2d_dmd", "epsilons=[]", "epsilons must be a non-empty array of finite positive "
                                        "numbers, got []"),
        ("linear2d_dmd", "epsilons=[-0.1]", "epsilons must be a non-empty array of finite "
                                            "positive numbers, got [-0.1]"),
        ("linear2d_dmd", "epsilons=[0.1,0]", "epsilons must be a non-empty array of finite "
                                             "positive numbers, got [0.1, 0]"),
        ("linear2d_dmd", "epsilons=[Infinity]", "epsilons must be a non-empty array of finite "
                                                "positive numbers, got [Infinity]"),
        ("vdp_phase", 'T="long"', 'T must be null or a finite positive number, got "long"'),
    ])
    def test_edge_input_is_a_usage_error_that_names_the_parameter(self, tmp_path, capsys,
                                                                  experiment, param, named):
        # the array-valued domains, which the generated number edges below do
        # not reach: refused with the types, before anything is written;
        # otherwise they failed deep in the run (an IndexError in fit_bridge
        # or limit_cycle_period, an unpacking ValueError in
        # unstable_manifold_sample), fit over a reversed window, passed the
        # overlap criterion on 256 copies of one point, or left no crossing
        assert run_cli([experiment, "--out", str(tmp_path), "--param", param]) == 2
        assert f"error: {experiment}: {named}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("experiment, key, says, value", [
        (experiment, key, domain.says, value)
        for experiment, (_, table) in sorted(EXPERIMENTS.items())
        for key, (_, domain) in table().items()
        for value in OUTSIDE.get(domain.says, ())
    ], ids=shown)
    def test_number_just_outside_its_domain_is_refused_before_anything_is_written(
            self, tmp_path, capsys, experiment, key, says, value):
        # every number domain of every table; before the tables
        # these exited 3 on a zero-size reduction or a division by zero, 1 on
        # a DivergenceError (softplus_edmd grid_lo <= 0) or an empty family
        # (bridge1d spurious_threshold <= 0), passed vacuously (p_cap = 0) or
        # on a backward flow (lin5d_check dt < 0), or were refused only after
        # snapshot and model files were written (or, for a grid_h of 1 or
        # more, after config.json); and an Infinity or NaN ran forever
        # (vdp_phase dt_check), exited 3 or 1, or ran and passed (linear2d_dmd
        # euler_step = Infinity flowed nothing)
        param = f"{key}={json.dumps(value)}"
        assert run_cli([experiment, "--out", str(tmp_path), "--param", param]) == 2
        assert (f"error: {experiment}: {key} must be {says}, got {json.dumps(value)}"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_default_lies_inside_its_domain(self, name):
        table = EXPERIMENTS[name][1]()
        assert [key for key, (default, domain) in table.items()
                if not domain.holds(default)] == []
        # a kind without generated edges is one the array rows above cover
        assert {domain.says for _, domain in table.values()} <= set(OUTSIDE) | ARRAY_KINDS

    @pytest.mark.parametrize("experiment, key, value", [
        (experiment, key, value)
        for experiment, (_, table) in sorted(EXPERIMENTS.items())
        for key, (default, _) in table().items()
        for name, value in SAMPLES.items()
        if name != _json_type(default) and default is not None
        and (_json_type(default), name) != ("number", "integer")
    ], ids=shown)
    def test_override_of_another_json_type_is_a_usage_error(self, tmp_path, capsys,
                                                            experiment, key, value):
        # each row refuses the JSON types its default refused before every
        # kind checked its own type (a number default took an integer too, and
        # a null default, vdp_phase T and step, whatever its kind takes): a
        # string count exited 3 on a TypeError comparing str and int, a
        # fractional one on numpy's TypeError
        says = EXPERIMENTS[experiment][1]()[key][1].says
        assert run_cli([experiment, "--out", str(tmp_path), "--param",
                        f"{key}={json.dumps(value)}"]) == 2
        assert (f"error: {experiment}: {key} must be {says}, got {json.dumps(value)}"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("kind, inside", [
        (core._NUMBER, -1), (core._POSITIVE, 1), (core._NONNEGATIVE, 0),
        (core._NULL_OR_POSITIVE, 1), (core._UNIT_OPEN, 0.5), (core._AT_LEAST_0, 0),
        (core._AT_LEAST_1, 1), (core._AT_LEAST_2, 2), (core._AT_LEAST_3, 3),
        (core._BANDWIDTH, 1),
    ], ids=lambda v: v.says if isinstance(v, _Domain) else str(v))
    def test_each_number_kind_checks_its_own_json_type(self, kind, inside):
        # a number kind takes an integer, never a boolean; an integer kind no
        # float; and no kind a number that is not finite or a float cannot hold
        integers = kind.says.startswith("an integer")
        assert kind.holds(inside)
        if _json_type(inside) == "integer":
            assert kind.holds(float(inside)) is not integers
        assert not any(map(kind.holds, (True, False, *NOT_FINITE, -10**400, "1", [1], {})))

    def test_typed_numeric_error_exits_one_and_is_named(self, tmp_path, capsys):
        # one snapshot pair gives a rank-deficient Gram matrix
        with pytest.warns(UserWarning, match="underdetermined"):
            code = run_cli(["linear2d_dmd", "--out", str(tmp_path), "--param", "n_pairs=1"])
        assert code == 1
        assert "numeric failure: IllConditionedError: " in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("error", [
        "IllConditionedError", "NearDefectiveError", "DivergenceError",
        "ConvergenceError", "EmptySupportError", "DomainError",
    ])
    def test_every_typed_numeric_error_exits_one(self, tmp_path, capsys, monkeypatch, error):
        from koopext import core, experiments

        def raising_runner(p, seed, out):
            raise getattr(core, error)("raised by the runner")

        table = experiments.EXPERIMENTS["lin5d_check"][1]
        monkeypatch.setitem(experiments.EXPERIMENTS, "lin5d_check", (raising_runner, table))
        assert run_cli(["lin5d_check", "--out", str(tmp_path)]) == 1
        assert f"numeric failure: {error}: raised by the runner" in capsys.readouterr().err

    def test_bare_runtime_error_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        from koopext import experiments

        def raising_runner(p, seed, out):
            raise RuntimeError("a bug")

        table = experiments.EXPERIMENTS["lin5d_check"][1]
        monkeypatch.setitem(experiments.EXPERIMENTS, "lin5d_check", (raising_runner, table))
        assert run_cli(["lin5d_check", "--out", str(tmp_path)]) == 3
        assert "internal error: RuntimeError: a bug" in capsys.readouterr().err

    def test_usage_error_on_unknown_config_key(self, tmp_path, capsys):
        # a config written before `threads` and `format` were dropped
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"experiment": "lin5d_check", "seed": 1,
                                    "out_dir": str(tmp_path), "format": "csv",
                                    "threads": 1, "params": {}}))
        assert run_cli(["run", "--config", str(path)]) == 2
        assert "['format', 'threads']" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("args", [
        *([name] for name in sorted(EXPERIMENTS)),
        ["run"],
        ["simulate", "--system", "linear2d"],
        ["fit", "--snapshots", "snapshots", "--dict", "rbf"],
        ["extend", "--model", "model", "--system", "linear2d"],
    ])
    def test_negative_seed_is_refused_before_anything_is_written(self, tmp_path, capsys, args):
        # Philox takes no negative seed: each seeded run and tool exited 3 on
        # its ValueError (bridge1d from -3 on, since it also draws with seed + 1
        # and seed + 2), `run --config` after writing config.json, and
        # saddle_fields and vdp_phase, which read no seed, ran
        out = tmp_path / "out"
        if args == ["run"]:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"experiment": "bridge1d", "seed": -1,
                                        "out_dir": str(out)}))
            args = ["run", "--config", str(path)]
        else:
            args = [*args, "--seed", "-1", "--out", str(out)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert ("argument --seed: must be an integer >= 0, got -1" in err
                or "seed must be an integer >= 0, got -1" in err)
        assert not out.exists()

    def test_eig_takes_no_seed(self, tmp_path, capsys):
        # one LAPACK call draws nothing; the flag went with the deflation
        out = tmp_path / "out"
        assert run_cli(["eig", "--model", "model", "--seed", "0", "--out", str(out)]) == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert not out.exists()

    def test_no_config_holds_a_negative_seed(self):
        # so neither `koopext.experiments.run` nor a subcommand gets one
        with pytest.raises(ConfigurationError,
                           match="config: seed must be an integer >= 0, got -1"):
            ExperimentConfig("lin5d_check", seed=-1)

    def test_success_exit_zero(self, tmp_path):
        code = run_cli(["lin5d_check", "--out", str(tmp_path), "--seed", "1"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_pass"] is True
        assert all({"name", "value", "threshold", "pass"} <= set(c) for c in summary["criteria"])

    @pytest.mark.parametrize("mu", [0.002])
    def test_polar_transforms_passes_inside_a_small_cycle(self, tmp_path, mu):
        # r was drawn from [0.05, 0.95 sqrt(mu)), empty below mu = 0.0028,
        # and numpy's ValueError exited 3
        assert run_cli(["polar_transforms", "--out", str(tmp_path),
                        "--param", f"mu={mu}"]) == 0

    def test_numeric_failure_exit_one(self, tmp_path):
        # an unconverged averaging horizon leaves the eigen-relation residual
        # above threshold: the run completes but reports a numeric failure
        cfg = ExperimentConfig(
            experiment="vdp_phase",
            seed=1,
            out_dir=str(tmp_path),
            params={**defaults("vdp_phase"), "T": 2.0, "grid_h": 0.4, "band": 0.4},
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

    @pytest.mark.parametrize("experiment, seed, params", GOLDEN_CONFIGS)
    def test_runner_passes_and_reruns_byte_identically(self, tmp_path, rerun_digests,
                                                       experiment, seed, params):
        # the benchmark's mixed_small, edmd_eig and dmd_bounds inputs, end to end
        summary = run(ExperimentConfig(experiment, seed=seed, out_dir=str(tmp_path),
                                       params=params))
        assert summary["all_pass"] is True
        assert file_digests(tmp_path) == rerun_digests(experiment, seed, params)

    @pytest.mark.parametrize("experiment, seed, params", GOLDEN_CONFIGS)
    def test_artifacts_match_the_golden_manifest(self, rerun_digests, experiment, seed,
                                                 params):
        assert_matches_golden(label(experiment, seed, params),
                              dict(rerun_digests(experiment, seed, params)))

    def test_readme_tool_chain_matches_the_golden_manifest(self):
        # simulate -> fit -> eig -> extend -> phase as the README runs them
        assert_matches_golden(TOOL_CHAIN_LABEL, dict(tool_chain_digests()))

    def test_golden_rewrite_lists_each_moved_file(self):
        old = {"a@0": {"x.csv": "1", "y.csv": "2", "z.csv": "3"}, "gone@0": {"w.csv": "4"}}
        new = {"a@0": {"x.csv": "1", "y.csv": "5", "v.csv": "6"}, "new@0": {"u.csv": "7"}}
        assert manifest_changes(old, new) == [
            "a@0 added v.csv", "a@0 changed y.csv", "a@0 removed z.csv",
            "gone@0 removed w.csv", "new@0 added u.csv"]
        assert manifest_changes(new, new) == []


@pytest.fixture
def two_blas_threads():
    """numpy's bundled OpenBLAS at 2 threads, so that a pin to one shows, and
    the caller's count given back afterwards."""
    lib = numpy_openblas()
    if lib is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    before = lib.threads()
    lib.set_threads(2)
    yield
    lib.set_threads(before)


def blas_threads() -> int:
    return numpy_openblas().threads()


class TestOneBlasThread:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bytes_match_the_manifest_at_any_thread_count(self, threads):
        # bridge1d@0 wrote other bytes at 1 and at 2 threads before runs were
        # pinned to one
        src = os.path.dirname(os.path.dirname(koopext.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        script = os.path.join(os.path.dirname(GOLDEN_PATH), "artifact_digests.py")
        out = subprocess.run([sys.executable, script, "bridge1d"], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        rows = [line.split() for line in out.splitlines()]
        assert {r[0] for r in rows} == {"bridge1d@0"}
        assert_matches_golden("bridge1d@0", {name: digest for _, name, digest in rows})

    def test_run_pins_one_thread_and_gives_the_count_back(self, tmp_path, monkeypatch,
                                                          two_blas_threads):
        seen = []

        def runner(p, seed, out):
            seen.append(blas_threads())
            if p["fail"]:
                raise ConfigurationError("refused inside the runner")
            return {"criteria": []}

        flag = _Domain("a boolean", lambda v: _json_type(v) == "boolean")
        monkeypatch.setitem(EXPERIMENTS, "probe", (runner, lambda: {"fail": (False, flag)}))
        run(ExperimentConfig("probe", out_dir=str(tmp_path)))
        with pytest.raises(ConfigurationError, match="refused inside the runner"):
            run(ExperimentConfig("probe", out_dir=str(tmp_path), params={"fail": True}))
        assert seen == [1, 1]
        assert blas_threads() == 2

    @pytest.mark.parametrize("args", [
        ["linear2d_dmd", "--param", "grid_hi=-1"],
        ["phase", "--method", "analytic", "--grid", "-1", "1", "0.5"],
        ["phase", "--grid", "1", "1", "0.1"],
    ])
    def test_cli_gives_the_count_back(self, tmp_path, two_blas_threads, args):
        # a run its runner refuses, a tool that succeeds and a tool that
        # refuses its input
        run_cli([*args, "--out", str(tmp_path)])
        assert blas_threads() == 2

    def test_run_completes_when_no_blas_can_be_pinned(self, tmp_path, monkeypatch):
        # another BLAS exports no thread setter: the run goes on unpinned
        monkeypatch.setattr(core, "numpy_openblas", lambda: None)
        summary = run(ExperimentConfig("bridge1d", out_dir=str(tmp_path)))
        assert summary["all_pass"] is True


class TestColdStart:
    def test_no_scipy_module_loads_at_import_in_a_run_or_in_the_tool_chain(self, tmp_path):
        # koopext runs on numpy alone: the first import of scipy.linalg or
        # scipy.integrate took about 0.4 s of a run, and scipy.linalg alone
        # about 28 MB of RSS. Every README run at its defaults, but
        # softplus_edmd at the benchmark's input: its defaults take 11 s on
        # the same code, with more eigenpairs on a finer grid.
        tests = os.path.dirname(GOLDEN_PATH)
        at_import, after_runs = run_python(f"""
import json, sys
sys.path.insert(0, {tests!r})
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import koopext, koopext.cli
at_import = scipy_modules()
from artifact_digests import CONFIGS, tool_chain_digests
from koopext.experiments import ExperimentConfig, run
for experiment, seed, params in CONFIGS[:8]:
    if experiment == "softplus_edmd":
        params = {{"n_eig": 3, "grid_h": 0.05}}
    run(ExperimentConfig(experiment, seed=seed, out_dir={str(tmp_path)!r} + "/" + experiment,
                         params=params))
tool_chain_digests()
print(json.dumps([at_import, scipy_modules()]))
""")
        assert at_import == []
        assert after_runs == []


class TestKernelIndependence:
    def test_vdp_phase_bytes_do_not_depend_on_the_openblas_kernel(self, tmp_path):
        # the period moved 2 ulp under the Haswell and Prescott kernels while
        # solve_ivp's steps went through the BLAS; Prescott runs on any x86-64
        code = """
import hashlib, json, os, sys
from koopext.experiments import ExperimentConfig, run
out = sys.argv[1]
run(ExperimentConfig("vdp_phase", out_dir=out,
                     params={"T": 2.0, "step": 0.1, "grid_h": 0.4, "band": 0.4}))
print(json.dumps({name: hashlib.sha256(open(os.path.join(out, name), "rb").read()).hexdigest()
                  for name in sorted(os.listdir(out)) if name != "config.json"}))
"""
        got = []
        for kernel in ("", "Prescott"):
            env = {**child_env(), "OPENBLAS_CORETYPE": kernel}
            proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / (kernel or "default"))],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            got.append(json.loads(proc.stdout))
        assert sorted(got[0]) == ["phase_config.json", "summary.json", "vdp_phase.csv"]
        assert got[0] == got[1]


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

    @pytest.mark.parametrize("version, named", [
        (7, "schema_version must be 1, got 7"),
        ("x", 'schema_version must be 1, got "x"'),
        (True, "schema_version must be 1, got true"),
        (1.0, "schema_version must be 1, got 1.0"),
    ])
    def test_other_schema_version_is_a_usage_error_that_names_it(self, tmp_path, capsys,
                                                                 version, named):
        # the version was a settable field that nothing read; a file of any
        # version ran and summary.json repeated it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "lin5d_check", "out_dir": str(tmp_path / "o"),
                                    "schema_version": version}))
        assert run_cli(["run", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, named", [
        ("seed", "x", 'seed must be an integer >= 0, got "x"'),
        ("seed", True, "seed must be an integer >= 0, got true"),
        ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
        ("seed", math.inf, "seed must be an integer >= 0, got Infinity"),
        ("out_dir", 5, "out_dir must be a JSON string, got 5"),
        ("out_dir", None, "out_dir must be a JSON string, got null"),
        ("experiment", ["x"], 'experiment must be the name of an experiment: linear2d_dmd, '),
        ("params", 5, "params must be a JSON object, got 5"),
        ("params", None, "params must be a JSON object, got null"),
        ("params", ["dt"], 'params must be a JSON object, got ["dt"]'),
    ])
    def test_config_value_of_another_json_type_is_a_usage_error(self, tmp_path, capsys,
                                                                key, value, named):
        # refused before anything is written: a string seed, a numeric out_dir
        # or params that are not an object would fail on a TypeError or an
        # AttributeError inside the run, and a boolean seed would run as 0 or 1
        config = {"experiment": "lin5d_check", "out_dir": str(tmp_path / "o"), key: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli(["run", "--config", str(path)]) == 2
        assert f"{path}: {named}" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_config_without_an_experiment_raises_a_configuration_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ConfigurationError, match=r"holds no \['experiment'\]"):
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

    def test_api_and_cli_runs_write_the_same_merged_config(self, tmp_path):
        # the API path used to record only the overrides, the CLI every parameter
        api, cli = tmp_path / "api", tmp_path / "cli"
        run(ExperimentConfig("lin5d_check", seed=1, out_dir=str(api), params={"grid_n": 11}))
        assert run_cli(["lin5d_check", "--out", str(cli), "--seed", "1",
                        "--param", "grid_n=11"]) == 0
        text = (api / "config.json").read_text()
        assert text.replace(str(api), "OUT") == (cli / "config.json").read_text().replace(
            str(cli), "OUT")
        assert json.loads(text)["params"] == {**defaults("lin5d_check"), "grid_n": 11}

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_no_default_parameter_is_a_json_object(self, name):
        # the generic type check sees only the top level of a parameter, so
        # a nested config would let its values reach the runner unchecked
        objects = [key for key, value in defaults(name).items()
                   if _json_type(value) == "object"]
        assert objects == []

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_default_parameter_is_read_by_its_runner(self, name):
        runner, table = EXPERIMENTS[name]
        source = inspect.getsource(runner)
        assert [key for key in table() if f'p["{key}"]' not in source] == []

    def test_help_lists_defaults(self):
        proc = run_cli_process("softplus_edmd", "--help")
        assert proc.returncode == 0
        assert "bandwidth" in proc.stdout
        assert "0.7" in proc.stdout
        # each default beside its domain, however argparse wraps the lines
        assert "n_rbf=40 (an integer >= 1)" in " ".join(proc.stdout.split())


@pytest.fixture(scope="module")
def linear2d_model_stem(tmp_path_factory):
    """The stem of an identity (DMD) model of linear2d, written by simulate and fit."""
    out = str(tmp_path_factory.mktemp("linear2d_model"))
    assert run_cli(["simulate", "--system", "linear2d", "--n-pairs", "100",
                    "--out", out, "--seed", "4"]) == 0
    assert run_cli(["fit", "--snapshots", os.path.join(out, "snapshots"), "--out", out]) == 0
    return os.path.join(out, "model")


class TestToolSubcommands:
    @pytest.mark.parametrize("args, named", [
        (["eig", "--n", "-1"], "argument --n: must be an integer >= 1, got -1"),
        (["eig", "--n", "0"], "argument --n: must be an integer >= 1, got 0"),
        (["extend", "--system", "linear2d", "--n", "0"],
         "argument --n: must be an integer >= 1, got 0"),
        (["extend", "--system", "quad1d"], "the model's dictionary takes 2-dim states, but "
                                           "quad1d is 1-dim"),
        (["extend", "--system", "cubic1d"], "the model's dictionary takes 2-dim states, but "
                                            "cubic1d is 1-dim"),
        (["extend", "--system", "linear2d", "--grid", "1", "1", "0.1"],
         "grid box needs hi > lo on every axis, got lo = (1.0, 1.0), hi = (1.0, 1.0)"),
        (["phase", "--grid", "1", "1", "0.1"],
         "grid box needs hi > lo on every axis, got lo = (1.0, 1.0), hi = (1.0, 1.0)"),
        (["simulate", "--system", "linear2d", "--box", "0"],
         "argument --box: must be a finite positive number, got 0"),
        (["simulate", "--system", "linear2d", "--dt", "0"],
         "argument --dt: must be a finite positive number, got 0"),
    ])
    def test_edge_tool_input_is_a_usage_error_that_names_it(self, tmp_path, capsys,
                                                            linear2d_model_stem, args, named):
        # refused before any file is written: otherwise `eig --n -1` or `--n 0`
        # writes an empty spectrum and `extend --n 0` an empty report, a model
        # of another dimension fails on a ContractViolationError, a one-point
        # grid passes, and `simulate` writes copies of one point or pairs
        # flowed for no time
        model = [] if args[0] in ("phase", "simulate") else ["--model", linear2d_model_stem]
        assert run_cli([*args, *model, "--out", str(tmp_path)]) == 2
        assert f"error: {named}" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, flag, nargs", [
        (command, action.option_strings[0], action.nargs)
        for command, parser in build_parser()._subparsers._group_actions[0].choices.items()
        for action in parser._actions if action.type is not None
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tool_flag_is_a_usage_error_that_names_it(self, tmp_path, capsys,
                                                                 command, flag, nargs, value):
        # every flag that takes a number: simulate --system vanderpol --dt inf
        # ran forever, fit --ridge nan wrote a NaN model and --ridge inf one
        # of K = 0, and extend --epsilon nan certified nothing, each exit 0
        required = {"simulate": ["--system", "vanderpol"], "fit": ["--snapshots", "s"],
                    "eig": ["--model", "m"], "extend": ["--model", "m", "--system", "linear2d"]}
        given = [flag, *[value] * nargs] if nargs else [f"{flag}={value}"]
        out = tmp_path / "out"
        assert run_cli([command, *required.get(command, []), *given, "--out", str(out)]) == 2
        assert f"error: argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system, d", [("linear2d", 2), ("cubic1d", 1)])
    def test_simulate_from_an_overflowing_box_is_a_usage_error(self, tmp_path, capsys,
                                                               system, d):
        # a width of 2e308 overflows to inf, which drew infinite initial states
        # that every flow dropped as divergent (exit 1)
        assert run_cli(["simulate", "--system", system, "--box", "1e308",
                        "--out", str(tmp_path)]) == 2
        assert ("error: sampling box needs a finite width on every axis, got "
                f"lo = {(-1e308,) * d}, hi = {(1e308,) * d}") in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("dict_kind", ["identity", "rbf"])
    def test_fit_refuses_a_non_finite_snapshot(self, tmp_path, capsys, dict_kind):
        # a nan field made the rbf fit exit 3 on LinAlgError and the identity
        # fit write a model whose fit_residual is nan
        src, out = tmp_path / "src", tmp_path / "out"
        assert run_cli(["simulate", "--system", "linear2d", "--n-pairs", "20",
                        "--out", str(src), "--seed", "4"]) == 0
        csv_path = src / "snapshots.csv"
        lines = csv_path.read_bytes().split(b"\r\n")
        lines[4] = b"nan," + lines[4].split(b",", 1)[1]
        csv_path.write_bytes(b"\r\n".join(lines))
        stem = str(src / "snapshots")
        assert run_cli(["fit", "--snapshots", stem, "--dict", dict_kind,
                        "--n-centers", "5", "--out", str(out)]) == 2
        assert (f"error: {stem}.csv: snapshot row 4 (after the header) holds a non-finite "
                "value; snapshots must be finite") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bandwidth", ["1e170", "9.480751908109177e+153",
                                           "1.5717277847026285e-162", "1e-170"])
    def test_fit_refuses_a_bandwidth_whose_doubled_square_leaves_float_range(
            self, tmp_path, capsys, bandwidth):
        # 1e170 exited 3 on an OverflowError after k-means; 1e-170 divided by
        # 2 sigma^2 = 0 and failed on a rank-deficient Gram matrix (exit 1)
        out = tmp_path / "out"
        assert run_cli(["fit", "--snapshots", str(tmp_path / "none"), "--dict", "rbf",
                        "--bandwidth", bandwidth, "--out", str(out)]) == 2
        assert (f"error: argument --bandwidth: must be {core._BANDWIDTH.says}, got {bandwidth}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("sidecar, row, named", [
        ({"dt": None}, None, ".json holds no ['dt']"),
        ({"dt": -1}, None, ".json: dt must be a finite positive number, got -1"),
        ({"dt": 0}, None, ".json: dt must be a finite positive number, got 0"),
        ({"dt": math.nan}, None, ".json: dt must be a finite positive number, got NaN"),
        ({"dt": "0.1"}, None, '.json: dt must be a finite positive number, got "0.1"'),
        ({}, b"0.5,0.5,0.5", ".csv is not a table of numbers: the number of columns changed"),
        ({}, b"0.5,0.5,0.5,x", ".csv is not a table of numbers"),
    ])
    def test_fit_refuses_a_malformed_snapshot_file(self, tmp_path, capsys, sidecar, row, named):
        # a missing dt or a ragged row exited 3 on a KeyError or numpy's
        # ValueError, and dt = -1 or 0 exited 0 with that dt in model.json
        src, out = tmp_path / "src", tmp_path / "out"
        assert run_cli(["simulate", "--system", "linear2d", "--n-pairs", "20",
                        "--out", str(src), "--seed", "4"]) == 0
        edit_sidecar(src / "snapshots.json", sidecar)
        if row is not None:
            lines = (src / "snapshots.csv").read_bytes().split(b"\r\n")
            lines[3] = row
            (src / "snapshots.csv").write_bytes(b"\r\n".join(lines))
        stem = str(src / "snapshots")
        capsys.readouterr()
        assert run_cli(["fit", "--snapshots", stem, "--out", str(out)]) == 2
        assert f"error: {stem}{named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tool, sidecar, k_csv, named", [
        ("eig", {"dt": None}, None, ".json holds no ['dt']"),
        ("eig", {"dictionary": None, "fit_residual": None}, None,
         ".json holds no ['dictionary', 'fit_residual']"),
        ("extend", {"dt": 0}, None, ".json: dt must be a finite positive number, got 0"),
        ("extend", {"dt": math.inf}, None,
         ".json: dt must be a finite positive number, got Infinity"),
        ("eig", {}, "0.8,nan\n0,0.9\n", "_K.csv: K holds a non-finite value"),
        ("eig", {}, "0.8,0\n", "_K.csv: K is 1x2, but the model's dictionary has 2 features"),
        ("extend", {}, "1,0,0\n0,1,0\n0,0,1\n",
         "_K.csv: K is 3x3, but the model's dictionary has 2 features"),
        ("eig", {}, "0.8,0\n0\n", "_K.csv is not a table of numbers"),
    ])
    def test_eig_and_extend_refuse_a_malformed_model(self, tmp_path, capsys, linear2d_model_stem,
                                                     tool, sidecar, k_csv, named):
        # a missing key exited 3 on a KeyError, a one-row K on an error that
        # named neither file nor cause, a nan in K ran every power step before
        # it exited 1, and dt = 0 certified every power with a bound of 0
        stem = tmp_path / "model"
        shutil.copy(f"{linear2d_model_stem}.json", tmp_path / "model.json")
        shutil.copy(f"{linear2d_model_stem}_K.csv", tmp_path / "model_K.csv")
        edit_sidecar(tmp_path / "model.json", sidecar)
        if k_csv is not None:
            (tmp_path / "model_K.csv").write_text(k_csv)
        out = tmp_path / "out"
        extra = ["--system", "linear2d", "--grid", "-1", "1", "0.25"] if tool == "extend" else []
        assert run_cli([tool, "--model", str(stem), *extra, "--out", str(out)]) == 2
        assert f"error: {stem}{named}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_zero_p_max_is_a_usage_error(self, tmp_path, capsys):
        # a report of no certified power would certify nothing
        out = str(tmp_path)
        assert run_cli(["simulate", "--system", "linear2d", "--n-pairs", "100",
                        "--dt", "0.2", "--out", out, "--seed", "2"]) == 0
        assert run_cli(["fit", "--snapshots", os.path.join(out, "snapshots"),
                        "--dict", "identity", "--out", out]) == 0
        capsys.readouterr()
        assert run_cli(["extend", "--model", os.path.join(out, "model"),
                        "--system", "linear2d", "--grid", "-1", "1", "0.25",
                        "--p-max", "0", "--out", out]) == 2
        assert "error: argument --p-max: must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "extension_report.json").exists()

    def test_extend_writes_the_softplus_edmd_report(self, tmp_path):
        # the tool and the runner certify through one function: given the
        # runner's model at the benchmark's edmd_eig inputs, the tool writes
        # the runner's extension report
        ran = tmp_path / "run"
        run(ExperimentConfig("softplus_edmd", seed=5, out_dir=str(ran),
                             params={"n_eig": 3, "grid_h": 0.05}))
        assert run_cli(["extend", "--model", str(ran / "model"), "--system", "softplus2d",
                        "--grid", "1", "2", "0.05", "--n", "3", "--epsilon", "0.01",
                        "--p-max", "3", "--seed", "5", "--out", str(tmp_path / "tool")]) == 0
        assert ((tmp_path / "tool" / "extension_report.json").read_bytes()
                == (ran / "extension_report.json").read_bytes())

    def test_system_without_a_closed_form_flow_is_refused(self, tmp_path, capsys):
        # without an exact flow there is no measured eps_G to certify a bound with
        out = str(tmp_path)
        assert run_cli(["simulate", "--system", "linear2d", "--n-pairs", "100",
                        "--out", out, "--seed", "2"]) == 0
        assert run_cli(["fit", "--snapshots", os.path.join(out, "snapshots"),
                        "--out", out]) == 0
        capsys.readouterr()
        assert run_cli(["extend", "--model", os.path.join(out, "model"),
                        "--system", "duffing", "--grid", "-1", "1", "0.25",
                        "--out", out]) == 2
        assert "duffing has no closed-form flow" in capsys.readouterr().err
        assert not (tmp_path / "extension_report.json").exists()
