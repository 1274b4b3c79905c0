"""Regression tests that pin the compute-once data flow of the experiments:
each evaluation grid is flowed once per flow map, and the limit-cycle period
is solved once per phase run."""
import numpy as np

from koopext import phase
from koopext.core import EvalGrid
from koopext.dynamics import FlowMap
from koopext.experiments import ExperimentConfig, run


def test_linear2d_dmd_flows_the_grid_once_per_flow_map(tmp_path, monkeypatch):
    grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.1)
    on_grid = []
    original = FlowMap.__call__

    def counting_call(self, points):
        if np.array_equal(np.asarray(points), grid.points):
            on_grid.append(self.method)
        return original(self, points)

    monkeypatch.setattr(FlowMap, "__call__", counting_call)
    summary = run(ExperimentConfig("linear2d_dmd", seed=42, out_dir=str(tmp_path),
                                   params={"grid_h": 0.1}))
    assert summary["all_pass"]
    # one exact and one Euler flow feed every error, bound and extension loop
    assert sorted(on_grid) == ["euler", "exact"]


def test_vdp_phase_solves_the_period_once(tmp_path, monkeypatch):
    calls = []
    original = phase.limit_cycle_period

    def counting_period(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(phase, "limit_cycle_period", counting_period)
    run(ExperimentConfig("vdp_phase", out_dir=str(tmp_path),
                         params={"T": 2.0, "step": 0.1, "grid_h": 0.4, "band": 0.4}))
    assert len(calls) == 1
