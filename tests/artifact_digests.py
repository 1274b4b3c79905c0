"""Print the SHA-256 of every artifact a list of experiment runs writes.

A plain script, not a test module. Each config is run through
`koopext.experiments.run` in a temporary directory, and one line per file
is printed as `<experiment>@<seed><params> <file> <sha256>`, sorted by file
name. `config.json` is left out, since it records the output directory.
Two trees that print the same lines wrote the same bytes. The README's
tool-surface commands (simulate, fit, eig, extend, phase) run in order
through `koopext.cli.main` under the label `readme_tool_chain`, their files
named by path below the run directory.

    PYTHONPATH=src python tests/artifact_digests.py              # every config
    PYTHONPATH=src python tests/artifact_digests.py vdp_phase    # one experiment
    PYTHONPATH=src python tests/artifact_digests.py readme_tool_chain
    PYTHONPATH=src python tests/artifact_digests.py --golden     # rewrite the manifest

`--golden` rewrites `golden_sha256.json` beside this file: the digests of the
GOLDEN_CONFIGS runs and of the README tool chain, which tier-1 makes and
checks against it, and the environment that wrote them. It prints one line
`<label> <changed|added|removed> <file>` per file whose digest differs from
the manifest it replaces, and `environment changed` when the environment
does. A change that alters artifact bytes on purpose regenerates it this way
and lists the printed files.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

import numpy

from koopext.cli import main as cli_main
from koopext.core import numpy_openblas, one_blas_thread
from koopext.experiments import ExperimentConfig, run
from test_readme import tool_surface_commands

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

TOOL_CHAIN_LABEL = "readme_tool_chain"

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sha256.json")


def label(experiment: str, seed: int, params: dict) -> str:
    return f"{experiment}@{seed}" + (
        json.dumps(params, sort_keys=True, separators=(",", ":")) if params else ""
    )


def _openblas() -> dict | None:
    """Runtime configuration (kernel core included) of the OpenBLAS numpy
    bundles and the thread count runs use, read inside `one_blas_thread`; None
    when numpy bundles none and runs go unpinned."""
    lib = numpy_openblas()
    if lib is None:
        return None
    with one_blas_thread():
        threads = lib.threads()
    return {"config": lib.function("get_config", ctypes.c_char_p)().decode().strip(),
            "threads": threads}


def environment() -> dict:
    """What artifact bytes depend on besides the source: the numpy version,
    the OpenBLAS it runs (kernel core and the thread count of the runs) and
    the CPU features it dispatches on. No run calls scipy."""
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "numpy_openblas": _openblas(),
        "numpy_cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def file_digests(out) -> list[tuple[str, str]]:
    """(path below `out`, sha256) of every file under `out` but config.json,
    sorted by path."""
    rows = []
    for root, _, names in os.walk(out):
        for name in names:
            if name == "config.json":
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                rows.append((os.path.relpath(path, out).replace(os.sep, "/"),
                             hashlib.sha256(fh.read()).hexdigest()))
    return sorted(rows)


def digests(experiment: str, seed: int, params: dict) -> list[tuple[str, str]]:
    with tempfile.TemporaryDirectory() as out:
        run(ExperimentConfig(experiment, seed=seed, out_dir=out, params=params))
        return file_digests(out)


def tool_chain_digests() -> list[tuple[str, str]]:
    """file_digests of a temporary directory in which the README's
    tool-surface commands ran in order, their output relative to it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as out:
        os.chdir(out)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for command in tool_surface_commands():
                    if cli_main(command[1:]) != 0:
                        raise RuntimeError(f"{' '.join(command)} failed")
        finally:
            os.chdir(cwd)
        return file_digests(out)


def manifest_changes(old: dict, new: dict) -> list[str]:
    """`<label> <changed|added|removed> <file>` for every file whose digest
    differs between two manifests' runs ({label: {file: sha256}}), by label
    and then file."""
    lines = []
    for run_label in sorted(old.keys() | new.keys()):
        before, after = old.get(run_label, {}), new.get(run_label, {})
        for name in sorted(before.keys() | after.keys()):
            if name not in before:
                lines.append(f"{run_label} added {name}")
            elif name not in after:
                lines.append(f"{run_label} removed {name}")
            elif before[name] != after[name]:
                lines.append(f"{run_label} changed {name}")
    return lines


def write_golden() -> None:
    runs = {label(*cfg): dict(digests(*cfg)) for cfg in GOLDEN_CONFIGS}
    runs[TOOL_CHAIN_LABEL] = dict(tool_chain_digests())
    manifest = {"environment": environment(), "runs": runs}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as fh:
            old = json.load(fh)
        if old["environment"] != manifest["environment"]:
            print("environment changed")
        for line in manifest_changes(old["runs"], runs):
            print(line)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def main(names: list[str]) -> None:
    for experiment, seed, params in CONFIGS:
        if names and experiment not in names:
            continue
        for name, digest in digests(experiment, seed, params):
            print(f"{label(experiment, seed, params)} {name} {digest}", flush=True)
    if TOOL_CHAIN_LABEL in names:
        for name, digest in tool_chain_digests():
            print(f"{TOOL_CHAIN_LABEL} {name} {digest}", flush=True)


if __name__ == "__main__":
    if sys.argv[1:] == ["--golden"]:
        write_golden()
    else:
        main(sys.argv[1:])
