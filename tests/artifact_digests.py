"""Print the SHA-256 of every artifact a list of experiment runs writes.

A plain script, not a test module. Each config is run through
`koopext.experiments.run` in a temporary directory, and one line per file
is printed as `<experiment>@<seed><params> <file> <sha256>`, sorted by file
name. `config.json` is left out, since it records the output directory.
Two trees that print the same lines wrote the same bytes.

    PYTHONPATH=src python tests/artifact_digests.py              # every config
    PYTHONPATH=src python tests/artifact_digests.py vdp_phase    # one experiment
    PYTHONPATH=src python tests/artifact_digests.py --golden     # rewrite the manifest

`--golden` rewrites `golden_sha256.json` beside this file: the digests of the
GOLDEN_CONFIGS runs, which tier-1 makes and checks against it, and the
environment that wrote them. A change that alters artifact bytes on purpose
regenerates it this way and lists each changed file.
"""
from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy
import scipy

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

# The runs tier-1 makes and reruns (test_cli.TestDeterminism): the
# benchmark's mixed_small, edmd_eig and dmd_bounds inputs.
GOLDEN_CONFIGS = (
    ("bridge1d", 0, {}),
    ("duffing_edmd", 7, {}),
    ("saddle_fields", 0, {}),
    ("polar_transforms", 0, {}),
    ("lin5d_check", 0, {}),
    ("softplus_edmd", 5, {"n_eig": 3, "grid_h": 0.05}),
    ("linear2d_dmd", 42, {"grid_h": 0.02}),
    ("linear2d_dmd", 7, {"grid_h": 0.02}),
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sha256.json")


def label(experiment: str, seed: int, params: dict) -> str:
    return f"{experiment}@{seed}" + (
        json.dumps(params, sort_keys=True, separators=(",", ":")) if params else ""
    )


def _openblas(package) -> dict | None:
    """Runtime configuration (kernel core included) and thread count of the
    OpenBLAS a package bundles, or None when it bundles none."""
    for path in sorted(glob.glob(os.path.dirname(package.__file__) + ".libs/*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                return {"config": config().decode().strip(), "threads": int(threads())}
    return None


def environment() -> dict:
    """What artifact bytes depend on besides the source: library versions, the
    OpenBLAS that numpy and scipy each run (kernel core and thread count) and
    the CPU features numpy dispatches on."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _openblas(numpy),
        "scipy_openblas": _openblas(scipy),
        "numpy_cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


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


def write_golden() -> None:
    runs = {label(*cfg): dict(digests(*cfg)) for cfg in GOLDEN_CONFIGS}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"environment": environment(), "runs": runs}, fh, indent=2)
        fh.write("\n")


def main(names: list[str]) -> None:
    for experiment, seed, params in CONFIGS:
        if names and experiment not in names:
            continue
        for name, digest in digests(experiment, seed, params):
            print(f"{label(experiment, seed, params)} {name} {digest}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--golden"]:
        write_golden()
    else:
        main(sys.argv[1:])
