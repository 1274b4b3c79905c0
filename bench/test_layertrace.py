"""Trace fidelity: the outside-in tracer must see every layer call, must not
change a single artifact byte, and must produce self times that add up.

    PYTHONPATH=src python -m pytest -q bench/test_layertrace.py
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run as bench_run  # noqa: E402
from koopext import experiments  # noqa: E402

# Quick experiments that still cross every layer between them.
SMALL = [
    experiments.ExperimentConfig("lin5d_check", seed=0),
    experiments.ExperimentConfig("bridge1d", seed=0),
    experiments.ExperimentConfig("saddle_fields"),
    experiments.ExperimentConfig("polar_transforms", seed=0),
]


def _run_all(out: Path, tracer=None) -> float:
    t0 = perf_counter()
    if tracer is None:
        for cfg in SMALL:
            experiments.run(_at(cfg, out))
    else:
        with layertrace.installed(tracer):
            for cfg in SMALL:
                experiments.run(_at(cfg, out))
    return perf_counter() - t0


def _at(cfg, out: Path):
    return experiments.ExperimentConfig(cfg.experiment, seed=cfg.seed,
                                        out_dir=str(out / cfg.experiment))


def _koopext_bindings():
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "koopext" or name.startswith("koopext.")):
            continue
        for attr, val in vars(mod).items():
            yield f"{name}.{attr}", val
            if isinstance(val, dict):
                for key, item in val.items():
                    yield f"{name}.{attr}[{key!r}]", item


def test_every_binding_of_a_wrapped_name_is_replaced():
    importlib.import_module("koopext.cli")
    names = layertrace.traced_names()
    originals = {id(orig) for _, _, orig in names.values()}
    before = {where: id(val) for where, val in _koopext_bindings()}
    with layertrace.installed(layertrace.Tracer()):
        assert [where for where, val in _koopext_bindings() if id(val) in originals] == []
        for owner, attr, orig in names.values():
            if inspect.isclass(owner):
                assert owner.__dict__[attr].__wrapped__ is orig
        # names the runner bound through `from .x import name`
        assert hasattr(experiments.fit_edmd, "__wrapped__")
        assert hasattr(experiments.write_grid_field, "__wrapped__")
    assert {where: id(val) for where, val in _koopext_bindings()} == before
    for owner, attr, orig in names.values():
        assert (owner.__dict__ if inspect.isclass(owner) else vars(owner))[attr] is orig


def test_traced_artifacts_are_byte_identical(tmp_path):
    _run_all(tmp_path / "plain")
    _run_all(tmp_path / "traced", layertrace.Tracer())
    plain = bench_run._artifact_digests(tmp_path / "plain")
    traced = bench_run._artifact_digests(tmp_path / "traced")
    assert plain and plain == traced


def test_self_times_are_nonnegative_and_fit_in_the_op(tmp_path):
    tracer = layertrace.Tracer()
    wall = _run_all(tmp_path, tracer)
    # float rounding of nested perf_counter differences stays far below 1 ns
    assert all(t >= -1e-9 for t in tracer.self_s.values()), dict(tracer.self_s)
    metrics = tracer.metrics(wall)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in layertrace.LAYERS)
    assert layer_sum == pytest.approx(tracer.covered_s(), abs=1e-9)
    assert layer_sum <= wall
    assert metrics["experiments.self_s"] >= 0
    for layer in layertrace.LAYERS:
        assert metrics[f"{layer}.self_s"] > 0, f"{layer} not reached"
    assert metrics["eigensolve.solve_calls"] == 10  # lin5d_check: five pairs, two solves each


def test_reported_metrics_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench_run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
