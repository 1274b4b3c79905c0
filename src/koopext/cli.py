"""Command-line experiment runner and tool surface.

One experiment per invocation: a subcommand per benchmark study, `run --config`
for the experiment a config file names, and generic tool subcommands
(simulate, fit, eig, extend, phase). Experiments and tools run with one BLAS
thread and give the caller's thread count back. Every default is listed by
--help beside its domain. Exit codes: 0 success, 1 numeric failure
(acceptance thresholds unmet, or a typed numeric error such as
IllConditionedError), 2 usage error, 3 internal error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (_AT_LEAST_0, _AT_LEAST_1, _AT_LEAST_2, _NONNEGATIVE, _NUMBER, _POSITIVE,
                   ConfigurationError, NumericError, one_blas_thread)
from .experiments import EXPERIMENTS, ExperimentConfig, run

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _flag(kind, parse):
    """The argparse `type=` of a numeric flag: its text, read by `parse` (int
    or float), must lie in the domain `kind`, as a table's value must."""
    def read(text: str):
        if not kind.holds(value := parse(text)):
            raise argparse.ArgumentTypeError(f"must be {kind.says}, got {text}")
        return value
    read.__name__ = parse.__name__  # text that is no number: "invalid int value"
    return read


def _add_out_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=_flag(_AT_LEAST_0, int), default=0, help="random seed >= 0")


def _add_param_overrides(parser: argparse.ArgumentParser, experiment: str) -> None:
    table = EXPERIMENTS[experiment][1]()
    rows = ", ".join(f"{key}={json.dumps(default)} ({domain.says})"
                     for key, (default, domain) in table.items())
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help=f"override a default parameter (defaults and domains: {rows})")


_N_HELP = "eigenpairs to compute (default: min(5, model dimension))"


def _n_pairs(args, model) -> int:
    return min(5, model.dim) if args.n is None else args.n


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koopext",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment from a config file")
    runp.add_argument("--config", required=True)

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        _add_out_seed(p)
        _add_param_overrides(p, name)

    sim = sub.add_parser("simulate", help="sample snapshot pairs from a benchmark system")
    _add_out_seed(sim)
    sim.add_argument("--system", required=True)
    sim.add_argument("--n-pairs", type=_flag(_AT_LEAST_1, int), default=400)
    sim.add_argument("--dt", type=_flag(_POSITIVE, float), default=0.2)
    sim.add_argument("--box", type=_flag(_POSITIVE, float), default=2.0,
                     help="half-width of the sampling box")
    sim.add_argument("--samples-per-traj", type=_flag(_AT_LEAST_2, int), default=2)

    fit = sub.add_parser("fit", help="fit a Koopman matrix from stored snapshots")
    _add_out_seed(fit)
    fit.add_argument("--snapshots", required=True, help="snapshot file stem")
    fit.add_argument("--dict", dest="dict_kind", choices=("identity", "rbf"), default="identity")
    fit.add_argument("--n-centers", type=_flag(_AT_LEAST_1, int), default=40)
    fit.add_argument("--bandwidth", type=_flag(_POSITIVE, float), default=0.3)
    fit.add_argument("--ridge", type=_flag(_NONNEGATIVE, float), default=0.0)

    eig = sub.add_parser("eig", help="leading eigentriplets of a stored model")
    eig.add_argument("--out", default=".", help="output directory")
    eig.add_argument("--model", required=True, help="model file stem")
    eig.add_argument("--n", type=_flag(_AT_LEAST_1, int), help=_N_HELP)

    ext = sub.add_parser("extend", help="certified eigenfunction powers for a stored model")
    _add_out_seed(ext)
    ext.add_argument("--model", required=True)
    ext.add_argument("--system", required=True)
    ext.add_argument("--n", type=_flag(_AT_LEAST_1, int), help=_N_HELP)
    ext.add_argument("--epsilon", type=_flag(_POSITIVE, float), default=0.01)
    ext.add_argument("--grid", type=_flag(_NUMBER, float), nargs=3, default=(-1.0, 1.0, 0.01),
                     metavar=("LO", "HI", "H"))
    ext.add_argument("--p-max", type=_flag(_AT_LEAST_1, int), default=64)

    ph = sub.add_parser("phase", help="isochron/isostable field for a benchmark system")
    ph.add_argument("--out", default=".", help="output directory")
    ph.add_argument("--system", choices=("polarLC", "vanderpol"), default="polarLC")
    ph.add_argument("--method", choices=("analytic", "laplace_average"), default="analytic")
    ph.add_argument("--grid", type=_flag(_NUMBER, float), nargs=3, default=(-1.8, 1.8, 0.1),
                    metavar=("LO", "HI", "H"))
    return parser


def _config_from_args(args, experiment: str) -> ExperimentConfig:
    params = {}
    for item in args.param:
        if "=" not in item:
            raise ConfigurationError(f"--param expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        params[key] = _parse_value(value)
    return ExperimentConfig(
        experiment=experiment,
        seed=args.seed,
        out_dir=args.out,
        params=params,
    )


def _tool_simulate(args) -> int:
    from .dynamics import make_system, sample_snapshots, write_snapshots

    sys_ = make_system(args.system)
    b = args.box
    d = sys_.dim
    snaps = sample_snapshots(
        sys_, args.n_pairs, args.dt, ((-b,) * d, (b,) * d), args.seed,
        samples_per_traj=args.samples_per_traj,
    )
    os.makedirs(args.out, exist_ok=True)
    write_snapshots(os.path.join(args.out, "snapshots"), snaps)
    print(f"wrote {len(snaps)} pairs to {args.out}/snapshots.csv")
    return EXIT_OK


def _tool_fit(args) -> int:
    from .dictionary import identity_dictionary, rbf_dictionary
    from .dynamics import read_snapshots
    from .regression import fit_edmd, save_model

    snaps = read_snapshots(args.snapshots)
    if args.dict_kind == "identity":
        dic = identity_dictionary(snaps.dim)
    else:
        dic = rbf_dictionary(snaps, args.n_centers, args.bandwidth, args.seed)
    model = fit_edmd(snaps, dic, ridge=args.ridge)
    os.makedirs(args.out, exist_ok=True)
    save_model(os.path.join(args.out, "model"), model)
    print(f"fit residual {model.fit_residual:.6e}; model written to {args.out}/model.json")
    return EXIT_OK


def _tool_eig(args) -> int:
    from .eigensolve import eigentriplets, write_eigenvectors_csv, write_spectrum_json
    from .regression import load_model

    model = load_model(args.model)
    pairs = eigentriplets(model.K, _n_pairs(args, model))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "spectrum.json")
    write_spectrum_json(path, pairs)
    write_eigenvectors_csv(os.path.join(args.out, "eigenvectors"), pairs)
    for i, p in enumerate(pairs):
        print(f"{i}: {p.lam.real:+.12f} {p.lam.imag:+.12f}j residual {p.residual:.2e}")
    return EXIT_OK


def _tool_extend(args) -> int:
    from .core import EvalGrid
    from .dynamics import make_system
    from .extend import certify_on_grid, write_extension_report
    from .regression import load_model

    sys_ = make_system(args.system)
    model = load_model(args.model)
    lo, hi, h = args.grid
    grid = EvalGrid((lo,) * sys_.dim, (hi,) * sys_.dim, h)
    results, _, _, _ = certify_on_grid(
        model, sys_, grid, _n_pairs(args, model), args.epsilon, args.p_max, args.seed
    )
    os.makedirs(args.out, exist_ok=True)
    write_extension_report(os.path.join(args.out, "extension_report.json"), results)
    for i, pe in enumerate(results):
        print(f"{i}: lambda={pe.eigenvalue:.8f} certified powers up to p={pe.result.max_power}")
    return EXIT_OK


def _tool_phase(args) -> int:
    from .core import EvalGrid
    from .dynamics import make_system
    from .phase import isofield, limit_cycle_period, write_phase_csv

    sys_ = make_system(args.system)
    lo, hi, h = args.grid
    grid = EvalGrid((lo, lo), (hi, hi), h)
    period = None
    if args.method == "laplace_average":
        _, period, _ = limit_cycle_period(sys_.field, (2.0, 0.0))
    field = isofield(sys_, args.method, grid, period)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "phase.csv")
    write_phase_csv(path, field)
    print(f"wrote {path} (eigenvalue {field.eigenvalue:.6f})")
    return EXIT_OK


_TOOLS = {
    "simulate": _tool_simulate,
    "fit": _tool_fit,
    "eig": _tool_eig,
    "extend": _tool_extend,
    "phase": _tool_phase,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        if args.command == "run":
            summary = run(ExperimentConfig.from_json(args.config))
        elif args.command in EXPERIMENTS:
            summary = run(_config_from_args(args, args.command))
        else:
            # one BLAS thread, as `run` gives the experiments
            with one_blas_thread():
                return _TOOLS[args.command](args)
    except (FileNotFoundError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for crit in summary["criteria"]:
        status = "PASS" if crit["pass"] else "FAIL"
        print(f"{status} {crit['name']}: value={crit['value']:.6g} threshold={crit['threshold']:.6g}")
    return EXIT_OK if summary["all_pass"] else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
