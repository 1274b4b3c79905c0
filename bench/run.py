#!/usr/bin/env python3
"""Outside-in benchmark of the koopext experiment pipeline.

Runs whole experiments through ``koopext.experiments.run`` in one process, as
a closed loop with a single caller: each op (one workload op = one or more
full experiment runs that write their artifacts) starts when the previous one
ends. See ``bench/README.md`` for the workloads, the metrics and how to read
them.

    python3 bench/run.py --workload edmd_eig --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seconds 28 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from ops run with the layer tracer installed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from layertrace import CALL_COUNTS, LAYERS, SELF_TIME_GROUPS, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Step:
    """One experiment run inside an op. Op k of a round uses seeds[k % len(seeds)]."""

    experiment: str
    seeds: tuple[int, ...]
    held_out: tuple[int, ...]
    params: dict


# Every seed below passes all acceptance criteria of its experiment. The
# parameter overrides shrink each op to a few seconds so that a 28 s run holds
# several ops of every input; each override keeps the layer the workload is
# chosen for as the dominant cost (README.md, "Workloads").
WORKLOADS: dict[str, tuple[Step, ...]] = {
    # eigensolve-bound: the Arnoldi power loop on the 40x40 softplus EDMD matrix
    "edmd_eig": (
        Step("softplus_edmd", (5,), (11, 3), {"n_eig": 3, "grid_h": 0.05}),
    ),
    # flow-bound: 80 FlowMap calls on one grid, 39 of them 200-step Euler runs
    "dmd_bounds": (
        Step("linear2d_dmd", (42, 7), (1,), {"grid_h": 0.02}),
    ),
    # dp45 + Laplace averaging + two limit-cycle period solves; seedless
    "phase_laplace": (
        Step("vdp_phase", (0,), (0,), {"T": 160.0, "step": 0.063}),
    ),
    # k-means, regression fits, bridging, CSV writes and a 5x5 deflation
    "mixed_small": (
        Step("bridge1d", (0,), (1,), {}),
        Step("duffing_edmd", (7,), (3,), {}),
        Step("saddle_fields", (0,), (0,), {}),
        Step("polar_transforms", (0,), (1,), {}),
        Step("lin5d_check", (0,), (1,), {}),
    ),
}

END_TO_END_UNITS = {
    "op_ref_p50": "ref",
    "cpu_per_wall": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "op_pass_ratio": "ratio",
}
SETUP_REPEATS = 3
MIN_ROUNDS = 2

_rng = np.random.default_rng(0)
PROBE_MAT = _rng.standard_normal((300, 300))
PROBE_SMALL = _rng.standard_normal((8, 8))
PROBE_VEC = _rng.standard_normal(64)


def probe_s() -> float:
    """Seconds a fixed computation of about 25 ms takes right now.

    It mixes what the workloads spend their time on: interpreted Python,
    numpy calls on small arrays, and a BLAS product that uses every OpenBLAS
    thread. Nothing in it depends on koopext, so its time moves only with the
    speed of the host.
    """
    t = perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += i * 0.5
    v = PROBE_VEC
    for _ in range(400):
        v = np.sin(v) + PROBE_SMALL[0, 0]
        np.linalg.eigvals(PROBE_SMALL)
    for _ in range(4):
        PROBE_MAT @ PROBE_MAT
    return perf_counter() - t


def per_layer_units() -> dict[str, str]:
    """Per-layer metric -> unit, in the order the traced run reports them."""
    units = {name: "s" for name in SELF_TIME_GROUPS}
    units.update({name: "count" for name in CALL_COUNTS})
    units.update({
        "dynamics.flow_points": "count",
        "dictionary.eval_points": "count",
        "eigensolve.residual_max": "ratio",
        "core.artifact_bytes": "bytes",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units["experiments.self_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (TypeError, KeyError):
        info = {"name": "unknown"}
    info["threads_env"] = {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# ops


def _artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file an op wrote, except config.json, which carries out_dir."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name != "config.json":
            digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def _combined_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {d}\n" for name, d in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class OpResult:
    pos: int
    wall_s: float
    cpu_s: float
    step_wall_s: list[float]  # one entry per step that ran
    step_ref_s: list[float]  # probe_s() before each step and after the last
    passed: bool
    digests: dict[str, str]
    artifact_bytes: int


def run_op(steps, pos: int, held_out: bool, out_dir: Path, tracer=None) -> OpResult:
    """One op: every step of the workload, at the inputs of round position `pos`."""
    from koopext.experiments import ExperimentConfig, run

    configs = []
    for step in steps:
        pool = step.held_out if held_out else step.seeds
        configs.append(ExperimentConfig(
            step.experiment, seed=pool[pos % len(pool)],
            out_dir=str(out_dir / step.experiment), params=dict(step.params)))
    step_wall, step_ref = [], []
    cpu = 0.0
    passed = True
    for cfg in configs:
        step_ref.append(probe_s())
        t, c = perf_counter(), process_time()
        try:
            with installed(tracer) if tracer is not None else nullcontext():
                passed &= run(cfg)["all_pass"]
        except Exception:  # an op that raises is a failed op; the loop goes on
            traceback.print_exc(file=sys.stderr)
            passed = False
        step_wall.append(perf_counter() - t)
        cpu += process_time() - c
        if not passed:
            break
    step_ref.append(probe_s())
    wall = sum(step_wall)
    digests = _artifact_digests(out_dir)
    nbytes = sum((out_dir / name).stat().st_size for name in digests)
    shutil.rmtree(out_dir, ignore_errors=True)
    return OpResult(pos, wall, cpu, step_wall, step_ref, passed, digests, nbytes)


def measure_setup(steps, pools) -> tuple[float, list[float]]:
    """Median cold start of the CLI process (interpreter + imports), plus the
    in-process input construction. Each cold start is its own child process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import koopext.cli", str(SRC)],
            check=True, timeout=120, capture_output=True)
        samples.append(perf_counter() - t0)
    t0 = perf_counter()
    from koopext.experiments import ExperimentConfig

    for step, pool in zip(steps, pools):
        for seed in pool:
            ExperimentConfig(step.experiment, seed=seed, params=dict(step.params))
    return statistics.median(samples) + (perf_counter() - t0), samples


def op_ref(ops: list[OpResult]) -> float:
    """Median op cost in probe units: each experiment's wall time divided by
    the mean of the probe_s() samples on either side of it, its median over
    the run, summed over the op's experiments and averaged over the pool
    positions.

    Other tenants of a shared host slow the whole machine by up to 2x, in
    stretches from seconds to an hour long (README.md, "Noise on this host").
    The probe is slowed with the program, so the quotient keeps the program's
    own cost and drops most of the neighbours'.
    """
    per_step: dict[tuple[int, int], list[float]] = {}
    for r in ops:
        for k, wall in enumerate(r.step_wall_s):
            ref = (r.step_ref_s[k] + r.step_ref_s[k + 1]) / 2
            per_step.setdefault((r.pos, k), []).append(wall / ref)
    total = sum(statistics.median(v) for v in per_step.values())
    return total / len({r.pos for r in ops})


def bench(workload: str, seed: int, seconds: float, trace: bool, held_out: bool) -> dict:
    steps = WORKLOADS[workload]
    pools = [s.held_out if held_out else s.seeds for s in steps]
    period = max(len(p) for p in pools)
    start = seed % period
    setup_s, setup_samples = measure_setup(steps, pools)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    ops: list[tuple[OpResult, dict | None]] = []  # (result, layer metrics if traced)
    reference: dict[int, dict[str, str]] = {}
    failed = 0
    try:
        t_start = perf_counter()
        rounds = 0
        while True:
            traced = trace and rounds % 2 == 1
            t_round = perf_counter()
            for k in range(period):
                pos = (start + k) % period
                tracer = Tracer() if traced else None
                res = run_op(steps, pos, held_out, work / f"op{len(ops)}", tracer)
                ref = reference.setdefault(pos, res.digests)
                if not res.passed or res.digests != ref:
                    failed += 1
                layer = None
                if tracer is not None:
                    layer = tracer.metrics(res.wall_s)
                    layer["core.artifact_bytes"] = res.artifact_bytes
                ops.append((res, layer))
            rounds += 1
            round_s = perf_counter() - t_round
            elapsed = perf_counter() - t_start
            # stop at the round boundary nearest to `seconds`
            if rounds >= MIN_ROUNDS and elapsed + round_s / 2 >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = len(ops)
    if trace:
        plain = [r for r, m in ops if m is None]
        layered = [m for _, m in ops if m is not None]
        traced = [r for r, m in ops if m is not None]
        units = per_layer_units()
        metrics = {}
        for name, unit in units.items():
            if name == "trace_overhead":
                value = op_ref(traced) / op_ref(plain) - 1.0
            else:
                value = statistics.median(m[name] for m in layered)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "op_ref_p50": op_ref([r for r, _ in ops]),
            "cpu_per_wall": statistics.median(r.cpu_s / r.wall_s for r, _ in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_s,
            "op_pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    labels = {}
    for pos in range(period):
        label = ",".join(f"{s.experiment}@{p[pos % len(p)]}" for s, p in zip(steps, pools))
        labels[label] = _combined_digest(reference[pos])
    info = {
        "workload": workload,
        "seed": seed,
        "held_out": held_out,
        "trace": trace,
        "rounds": rounds,
        "ops": attempted,
        "op_fail_ratio": failed / attempted,
        "op_s_p50": statistics.median(r.wall_s for r, _ in ops),
        "cpu_s_p50": statistics.median(r.cpu_s for r, _ in ops),
        "op_wall_s": [round(r.wall_s, 6) for r, _ in ops],
        "op_pos": [r.pos for r, _ in ops],
        "probe_s_p50": statistics.median(t for r, _ in ops for t in r.step_ref_s),
        "step_wall_s": [[round(t, 6) for t in r.step_wall_s] for r, _ in ops],
        "step_ref_s": [[round(t, 6) for t in r.step_ref_s] for r, _ in ops],
        "setup_samples_s": [round(s, 6) for s in setup_samples],
        "artifact_sha256": labels,
        "env": environment(),
    }
    return {
        "info": info,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def _print_table(workload: str, info: dict, result: dict) -> None:
    print(f"== {workload}: {info['ops']} ops in {info['rounds']} rounds, "
          f"failed {result['failed']} (op_fail_ratio {info['op_fail_ratio']:g})")
    print(f"   op wall median {info['op_s_p50']:.6g} s, cpu median {info['cpu_s_p50']:.6g} s, "
          f"reference probe median {info['probe_s_p50']:.6g} s (information only)")
    for name, m in result["metrics"].items():
        print(f"   {name:28s} {m['value']:>14.6g} {m['unit']}")


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--held-out"] if args.held_out else [])
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{workload}: exit {out.returncode}", file=sys.stderr)
            return 1
        print("\n".join(line for line in lines[:-1] if not line.startswith("{")))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="picks which input of each seed pool the rounds start with")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help="run on the held-out seeds instead of the benchmark pools")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    if not (SRC / "koopext").is_dir():
        print(f"koopext sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import koopext.experiments  # noqa: F401  (setup_s times the imports in fresh processes)

    out = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.held_out)
    _print_table(args.workload, out["info"], out["result"])
    print(json.dumps(out["info"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
