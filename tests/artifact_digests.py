"""Print the SHA-256 of every artifact a list of experiment runs writes.

A plain script, not a test module. Each config is run through
`koopext.experiments.run` in a temporary directory, and one line per file
is printed as `<experiment>@<seed><params> <file> <sha256>`, sorted by file
name. `config.json` is left out, since it records the output directory.
Two trees that print the same lines wrote the same bytes.

    PYTHONPATH=src python tests/artifact_digests.py              # every config
    PYTHONPATH=src python tests/artifact_digests.py vdp_phase    # one experiment
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from koopext.experiments import ExperimentConfig, run

# The eight experiments at their README seeds and defaults, then the inputs
# the benchmark's edmd_eig, phase_laplace, mixed_small and dmd_bounds
# workloads add.
CONFIGS = (
    ("linear2d_dmd", 42, {}),
    ("softplus_edmd", 5, {}),
    ("bridge1d", 0, {}),
    ("vdp_phase", 0, {}),
    ("polar_transforms", 0, {}),
    ("saddle_fields", 0, {}),
    ("duffing_edmd", 7, {}),
    ("lin5d_check", 0, {}),
    ("vdp_phase", 0, {"T": 160.0, "step": 0.063}),
    ("duffing_edmd", 3, {}),
    ("linear2d_dmd", 42, {"grid_h": 0.02}),
    ("linear2d_dmd", 7, {"grid_h": 0.02}),
    ("softplus_edmd", 5, {"n_eig": 3, "grid_h": 0.05}),
)


def file_digests(out) -> list[tuple[str, str]]:
    """(name, sha256) of every file in `out` but config.json, sorted by name."""
    rows = []
    for name in sorted(os.listdir(out)):
        if name == "config.json":
            continue
        with open(os.path.join(out, name), "rb") as fh:
            rows.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return rows


def digests(experiment: str, seed: int, params: dict) -> list[tuple[str, str]]:
    with tempfile.TemporaryDirectory() as out:
        run(ExperimentConfig(experiment, seed=seed, out_dir=out, params=params))
        return file_digests(out)


def main(names: list[str]) -> None:
    for experiment, seed, params in CONFIGS:
        if names and experiment not in names:
            continue
        label = f"{experiment}@{seed}" + (
            json.dumps(params, sort_keys=True, separators=(",", ":")) if params else ""
        )
        for name, digest in digests(experiment, seed, params):
            print(f"{label} {name} {digest}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
