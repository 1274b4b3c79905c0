"""Run experiments over a range of seeds and print every criterion that fails.

A plain script, not a test module: a sweep takes minutes. Each named runner
(every runner when none is named) runs through `koopext.experiments.run` in a
temporary directory once per seed in [--first, --last], with the given
parameter overrides, and one line is printed per failing criterion:
`<experiment>@<seed> <criterion> value=<value> threshold=<threshold>`, or
`<experiment>@<seed> refused: <error>` for a run that raised. A last line
counts the runs and the failures.

    PYTHONPATH=src python tests/seed_sweep.py duffing_edmd bridge1d
    PYTHONPATH=src python tests/seed_sweep.py --first 0 --last 19 \\
        --param n_eig=3 --param grid_h=0.05 softplus_edmd
"""
from __future__ import annotations

import argparse
import json
import tempfile

from koopext.experiments import EXPERIMENTS, ExperimentConfig, run


def sweep(names, seeds, params) -> tuple[int, list[str]]:
    """(number of runs, one line per failing criterion or refused run)."""
    runs, failures = 0, []
    for name in names:
        for seed in seeds:
            runs += 1
            with tempfile.TemporaryDirectory() as out:
                try:
                    summary = run(ExperimentConfig(name, seed=seed, out_dir=out, params=params))
                except Exception as exc:  # noqa: BLE001 - a sweep reports every run
                    failures.append(f"{name}@{seed} refused: {type(exc).__name__}: {exc}")
                    continue
            failures += [f"{name}@{seed} {c['name']} value={c['value']:.6g} "
                         f"threshold={c['threshold']:.6g}"
                         for c in summary["criteria"] if not c["pass"]]
    return runs, failures


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="EXPERIMENT",
                        help="runners to sweep (default: every runner)")
    parser.add_argument("--first", type=int, default=0, help="first seed")
    parser.add_argument("--last", type=int, default=19, help="last seed, included")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="override a parameter of every named runner (a JSON value)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(EXPERIMENTS))
    if unknown:
        parser.error(f"unknown experiments {unknown}")
    params = {key: json.loads(value)
              for key, _, value in (item.partition("=") for item in args.param)}
    runs, failures = sweep(args.names or list(EXPERIMENTS), range(args.first, args.last + 1),
                           params)
    for line in failures:
        print(line, flush=True)
    print(f"{runs} runs, {len(failures)} failing criteria or refusals")


if __name__ == "__main__":
    main()
