"""Regression tests that pin the compute-once data flow of the experiments:
each evaluation grid is flowed once per flow map, linear2d_dmd decomposes its
fitted K once, the limit-cycle period and orbit are solved once per phase run
and Laplace-averaged in one batch, the Arnoldi eigensolver makes one 2x2
eigenvalue solve per step and its warm start one product per power step, and
the certified extension loop computes what does not depend on the power p
once. The work moved out of a loop is pinned bit for bit against copies of
the code that recomputed it."""
import inspect
import tracemalloc

import numpy as np
import pytest

from koopext import eigensolve, phase
from koopext.core import (
    DIVERGENCE_LIMIT,
    SINGULAR,
    DivergenceError,
    EvalGrid,
    FlowedGrid,
    masked_grid_norm,
    principal_pow,
    singular_mask,
    tag_nonfinite,
)
from koopext.dictionary import Dictionary, identity_dictionary, rbf_dictionary
from koopext.dynamics import FlowMap, _check_divergence, make_system, sample_snapshots
from koopext.experiments import ExperimentConfig, run
from koopext.extend import (
    EigenfunctionExpr,
    PowerErrors,
    _base_values,
    _BoundConstants,
    _eval_base,
    _pow_values,
)
from koopext.regression import fit_edmd, load_model


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


def test_linear2d_dmd_decomposes_k_once(tmp_path, monkeypatch):
    # its pairs came from np.linalg.eig(K.T) and its spectrum.json from a
    # second decomposition of K by deflation; the linear2d builder's own
    # eigentriplets call decomposes A, not K
    seen = []
    for owner, name in ((np.linalg, "eig"), (eigensolve, "power_iteration_complex")):
        def spy(A, *args, original=getattr(owner, name), **kwargs):
            seen.append(np.array(A))
            return original(A, *args, **kwargs)
        monkeypatch.setattr(owner, name, spy)
    run(ExperimentConfig("linear2d_dmd", seed=42, out_dir=str(tmp_path),
                         params={"grid_h": 0.1}))
    K = load_model(str(tmp_path / "model")).K
    assert sum(np.array_equal(A, K) or np.array_equal(A, K.T) for A in seen) == 1


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


def test_vdp_phase_makes_two_dense_solves(tmp_path, monkeypatch):
    spans = []
    original = phase._dp45_dense

    def counting_dp45_dense(rhs, y0, t, *args, **kwargs):
        spans.append(t)
        return original(rhs, y0, t, *args, **kwargs)

    monkeypatch.setattr(phase, "_dp45_dense", counting_dp45_dense)
    run(ExperimentConfig("vdp_phase", out_dir=str(tmp_path),
                         params={"T": 2.0, "step": 0.1, "grid_h": 0.4, "band": 0.4}))
    # limit_cycle_period's relaxation, then its one period, whose dense
    # output gives the band samples
    assert spans == [60.0, 100.0]


def test_vdp_phase_peak_memory_stays_under_16_mb(tmp_path):
    # the run's own arrays: the band mask streams its distances instead of
    # holding a (points, samples, 2) tensor
    tracemalloc.start()
    try:
        run(ExperimentConfig("vdp_phase", out_dir=str(tmp_path), params={"T": 20.0}))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_vdp_phase_averages_the_grid_and_its_image_in_one_batch(tmp_path, monkeypatch):
    rows = []
    original = phase.laplace_average_batch
    signature = inspect.signature(original)

    def counting_batch(*args, **kwargs):
        points = signature.bind(*args, **kwargs).arguments["points"]
        rows.append(np.atleast_2d(points).shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(phase, "laplace_average_batch", counting_batch)
    run(ExperimentConfig("vdp_phase", out_dir=str(tmp_path),
                         params={"T": 2.0, "step": 0.1, "grid_h": 0.4, "band": 0.4}))
    singular = np.loadtxt(tmp_path / "vdp_phase.csv", delimiter=",", skiprows=1)[:, -1]
    kept = int(np.sum(singular == 0))
    assert kept > 0
    # the kept grid points stacked on their time-dt images, then the 1-row trivial check
    assert rows == [2 * kept, 1]


def test_arnoldi_makes_one_2x2_eigenvalue_solve_per_step(monkeypatch):
    # a dominant complex pair, so no step ends in a Krylov breakdown
    A = np.array([[0.5, -1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.3]])
    steps, solves = [], []
    original_step, original_solve = eigensolve._arnoldi_2col, eigensolve.eigen2d

    def counting_step(A, x):
        steps.append(1)
        return original_step(A, x)

    def counting_solve(h):
        solves.append(1)
        return original_solve(h)

    monkeypatch.setattr(eigensolve, "_arnoldi_2col", counting_step)
    monkeypatch.setattr(eigensolve, "eigen2d", counting_solve)
    pair = eigensolve.power_iteration_complex(A, seed=0)
    assert pair.lam == pytest.approx(complex(0.5, 1.0), abs=1e-10)
    assert len(steps) >= 1
    assert len(solves) == len(steps)


def _old_warm_start(A, seed):
    # the warm start as power_iteration(A, 500, seed, require_convergence=False)
    # ran it: A @ v_new formed twice per step, and once more by the next step
    v = np.random.Generator(np.random.Philox(seed)).standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    norm_A = np.linalg.norm(A)
    for _ in range(500):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return eigensolve._fix_phase(v).real
        v_new = w / nw
        lam = float(v_new @ (A @ v_new))
        if np.linalg.norm(A @ v_new - lam * v_new) <= 1e-12 * max(norm_A, 1e-300):
            return eigensolve._fix_phase(v_new.astype(complex)).real
        v = v_new
    return eigensolve._fix_phase(v.astype(complex)).real


@pytest.mark.parametrize("A", [
    np.diag([3.0, 1.0, 0.5, 0.2, 0.1]) + 0.2 * np.random.default_rng(4).random((5, 5)),
    np.array([[0.5, -1.0, 0.0], [1.0, 0.5, 0.0], [0.0, 0.0, 0.3]]),  # all 500 steps
    np.array([[0.0, 1.0], [0.0, 0.0]]),  # A @ v vanishes on the second step
    np.zeros((3, 3)),
], ids=["converges", "complex_pair", "nilpotent", "zero"])
def test_warm_start_matches_the_two_product_power_steps_bit_for_bit(A):
    for seed in (0, 7):
        assert np.array_equal(eigensolve._warm_start(A, seed), _old_warm_start(A, seed))


# ---------------------------------------------------------------------------
# The certified extension loop computes once what does not depend on p.


def test_linear2d_dmd_evaluates_the_features_at_most_21_times(tmp_path, monkeypatch):
    # the benchmark's dmd_bounds inputs; recomputing C_FG's features for every
    # power made 57 calls, and re-walking the measured errors for every
    # epsilon 58 PowerErrors calls
    evals, powers = [], []
    original_eval, original_call = Dictionary.eval, PowerErrors.__call__

    def counting_eval(self, points):
        evals.append(len(points))
        return original_eval(self, points)

    def counting_call(self, p):
        powers.append(p)
        return original_call(self, p)

    monkeypatch.setattr(Dictionary, "eval", counting_eval)
    monkeypatch.setattr(PowerErrors, "__call__", counting_call)
    summary = run(ExperimentConfig("linear2d_dmd", seed=42, out_dir=str(tmp_path),
                                   params={"grid_h": 0.02}))
    assert summary["all_pass"]
    assert len(evals) <= 21
    # 10 + 10 error-curve powers and the 5 measured crossing powers, per pair
    assert len(powers) == 50


def _old_cfg_per_power(dic, flowed, lam, p):
    # C_FG as the per-power code computed it: the features evaluated afresh for every p
    PX = dic.eval(flowed.points)
    PF = dic.eval(flowed.image)
    lam_abs = abs(lam)
    resid = np.linalg.norm(PF - complex(lam) * PX.astype(complex), axis=1)
    nx = np.linalg.norm(PX, axis=1)
    nf = np.linalg.norm(PF, axis=1)
    geom = sum(nf ** (p - 1 - i) * nx**i * lam_abs**i for i in range(p))
    return float(np.sqrt(np.mean((resid * geom) ** 2)))


@pytest.fixture(scope="module")
def linear2d_case():
    sys_ = make_system("linear2d")
    snaps = sample_snapshots(sys_, 200, 0.2, ((-2, -2), (2, 2)), seed=3)
    model = fit_edmd(snaps, identity_dictionary(2))
    grid = EvalGrid((-1, -1), (1, 1), 0.05)
    return model.dict, FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), grid), 0.85


@pytest.fixture(scope="module")
def rbf_case():
    sys_ = make_system("linear2d")
    snaps = sample_snapshots(sys_, 200, 0.2, ((-2, -2), (2, 2)), seed=3)
    dic = rbf_dictionary(snaps, 12, bandwidth=0.7, seed=3)
    model = fit_edmd(snaps, dic, ridge=1e-10)
    lam = complex(np.max(np.linalg.eigvals(model.K)))
    grid = EvalGrid((-1, -1), (1, 1), 0.1)
    return dic, FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), grid), lam


@pytest.mark.parametrize("case", ["linear2d_case", "rbf_case"])
def test_bound_constants_match_the_per_power_code_bit_for_bit(request, case):
    dic, flowed, lam = request.getfixturevalue(case)
    old = [_old_cfg_per_power(dic, flowed, lam, p) for p in range(1, 11)]
    # a fresh instance per p, and one instance across p as extend_discrete uses
    # it, in and out of order
    assert [_BoundConstants(dic, flowed, lam)(p) for p in range(1, 11)] == old
    shared = _BoundConstants(dic, flowed, lam)
    assert [shared(p) for p in range(1, 11)] == old
    shared = _BoundConstants(dic, flowed, lam)
    assert [shared(p) for p in (10, 3, 1, 7)] == [old[9], old[2], old[0], old[6]]


def _old_pow_values(vals, m):
    # _pow_values as it was: the masks computed afresh for every power
    out_singular = singular_mask(vals)
    zero = (vals == 0) & ~out_singular
    if float(m).is_integer():
        m_int = int(m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(zero & (m_int <= 0), np.nan, vals) ** m_int
        if m_int == 0:
            out = np.where(zero, 1.0 + 0j, out)
    else:
        with np.errstate(invalid="ignore", over="ignore"):
            out = principal_pow(np.where(zero | out_singular, 1.0, vals), m)
        out = np.where(zero, 0.0 + 0j if m > 0 else np.nan, out)
    return tag_nonfinite(np.where(out_singular, np.nan, out))


# singular tags (NaN in either part), zeros of both signs, values that
# overflow or underflow under a power, and ordinary complex values
POW_INPUTS = np.array([
    SINGULAR, complex(np.nan, 1.0), complex(2.0, np.nan), 0.0, complex(-0.0, -0.0),
    complex(0.0, -0.0), 1e200, 1e-200, complex(-3.0, 1e-17), -2.5, complex(0.3, -1.7),
    complex(1.0, 1.0), np.inf, complex(-1.0, 0.0),
], dtype=complex)
POW_EXPONENTS = (-7, -3, -1, 0, 1, 2, 3, 5, 7, 10, 40, 100, 0.5, -0.5, 1.5, -2.25, 1 / 3)


@pytest.mark.parametrize("m", POW_EXPONENTS)
def test_pow_values_match_the_per_power_masks_bit_for_bit(m):
    new = _pow_values(_base_values(POW_INPUTS), m)
    assert new.tobytes() == _old_pow_values(POW_INPUTS, m).tobytes()


def test_combine_matches_the_per_power_masks_bit_for_bit():
    a, b = POW_INPUTS, POW_INPUTS[::-1].copy()
    for ma, mb in [(2, -1), (3, 0.5), (0, 7), (-0.5, -3), (10, 1)]:
        expr = EigenfunctionExpr(((None, ma), (None, mb)), 1.0, scale=complex(0.7, -0.2))
        old = np.full(len(a), expr.scale, dtype=complex)
        old = tag_nonfinite(old * _old_pow_values(a, ma) * _old_pow_values(b, mb))
        new = expr.combine([_base_values(a), _base_values(b)], len(a))
        assert new.tobytes() == old.tobytes()


def test_expression_eval_prepares_its_bases_like_power_errors():
    sys_ = make_system("quad1d")
    pts = np.array([[1.5], [2.0], [2.5]])  # the base vanishes at x = 2
    base = sys_.analytic_eigenfunctions[0]
    expr = EigenfunctionExpr(((base, -1.0),), 1.0)
    prepared = _eval_base(base, pts)
    assert list(prepared[2]) == [False, True, False]  # the zero mask
    assert expr.eval(pts).tobytes() == expr.combine([prepared], 3).tobytes()


@pytest.mark.parametrize("system", ["linear2d", "vanderpol"])
def test_euler_flow_matches_the_copying_step_bit_for_bit(system):
    field = make_system(system).field
    pts = EvalGrid((-1, -1), (1, 1), 0.1).points
    y = pts.copy()
    for _ in range(40):
        y = y + 0.005 * field.rhs(y)
        if not np.all(np.isfinite(y)) or np.any(np.abs(y) > DIVERGENCE_LIMIT):
            raise AssertionError("the reference flow diverged")
    fmap = FlowMap(field, 0.2, method="euler", step=0.005)
    flowed = FlowedGrid.of(fmap, EvalGrid((-1, -1), (1, 1), 0.1))
    assert flowed.image.tobytes() == y.tobytes()
    assert np.array_equal(flowed.points, pts)  # the grid was not stepped in place


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e9, -1e9])
def test_divergence_check_refuses_nonfinite_and_large_states(bad):
    y = np.array([[0.5, -0.25], [1.0, bad]])
    with pytest.raises(DivergenceError, match="euler flow"):
        _check_divergence(y, "euler flow")


@pytest.mark.parametrize("y", [np.zeros((0, 2)), np.array([[DIVERGENCE_LIMIT, -1e-300]])])
def test_divergence_check_passes_an_empty_batch_and_the_limit(y):
    _check_divergence(y, "integration")


@pytest.mark.parametrize("values", [
    np.array([3.0, -4.0, 0.5]),
    np.array([complex(1, 2), SINGULAR, complex(-0.5, 0)]),
    np.array([complex(3, -1), complex(0, 0), complex(1e-170, 1e150)]),
])
def test_masked_grid_norm_matches_the_copying_mean_bit_for_bit(values):
    bad = singular_mask(values)
    old = float(np.sqrt(np.mean(np.abs(values[~bad]) ** 2)))
    assert masked_grid_norm(values) == (old, int(np.count_nonzero(bad)))
