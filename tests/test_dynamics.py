import csv
import functools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from koopext.core import (MAX_STEPS, ConfigurationError, DivergenceError, EvalGrid, FlowedGrid,
                          singular_mask)
from koopext.dynamics import (
    FlowMap,
    SnapshotSet,
    _bracketed_root,
    bistable_transform,
    bistable_transform_inv,
    dp45,
    integration_error_sup,
    make_system,
    read_snapshots,
    sample_snapshots,
    transform_snapshots,
    unstable_manifold_sample,
    write_snapshots,
)

A_DEFAULT = np.array([[-0.9, 0.1], [0.0, -0.8]])

# sampling box of each system with analytic eigenfunctions, at its defaults
SAMPLE_BOXES = {
    "cubic1d": ((-2.0,), (4.0,)),
    "quad1d": ((1.0,), (4.0,)),
    "linear2d": ((-2.0, -2.0), (2.0, 2.0)),
    "softplus2d": ((0.1, 0.1), (2.5, 2.5)),
    "lin5d": ((-2.0,) * 5, (2.0,) * 5),
    "polarLC": ((-2.0, -2.0), (2.0, 2.0)),
    "saddle2d": ((-0.8, -0.8), (2.0, 2.0)),
    "bistable2d": ((-1.0, -1.0), (1.0, 1.0)),
}
ALL_ANALYTIC_IDS = list(SAMPLE_BOXES)

# the finite points where an eigenfunction is singular, by system and name
SINGULAR_POINTS = {
    ("cubic1d", "phi1"): [[0.0]],
    ("cubic1d", "phi2"): [[-1.0], [3.0]],
    ("cubic1d", "phi3"): [[0.0]],
    ("quad1d", "phi_a^1"): [[3.0]],
    ("quad1d", "phi_b^1"): [[2.0]],
    ("polarLC", "phi_lc"): [[0.0, 0.0]],
    ("polarLC", "phi_ss"): [[1.0, 0.0], [0.0, -1.5]],  # on and beyond the cycle
    ("saddle2d", "phi1"): [[-1.0, 0.0]],
    ("saddle2d", "phi2"): [[0.0, -1.0]],
    ("bistable2d", "phi1_unstable"): [[0.5078125, 0.125], [-0.4921875, 0.125]],
    ("bistable2d", "phi1_node"): [[0.0, 0.0]],
}


def koopman_pde_residual(system, eigenfunction, points):
    """|grad(phi) . F - lambda phi| at each point, with grad(phi) from central
    differences of the evaluator (step 1e-6 (1 + |x_j|)). Validation oracle
    for analytic eigenfunctions."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    grad = np.zeros((n, d), dtype=complex)
    for j in range(d):
        h = 1e-6 * (1.0 + np.abs(pts[:, j]))
        pp, pm = pts.copy(), pts.copy()
        pp[:, j] += h
        pm[:, j] -= h
        grad[:, j] = (eigenfunction.eval(pp) - eigenfunction.eval(pm)) / (2 * h)
    F = system.field.rhs(pts)
    phi = eigenfunction.eval(pts)
    return np.abs(np.sum(grad * F, axis=1) - eigenfunction.eigenvalue * phi)


def away_from_singularities(system, eig, pts, reach=0.1, spread=2.0):
    """Rows at least `reach` from every steady state where |phi| is finite,
    nonzero and within a factor `spread` of itself at the 2d points `reach`
    away along each axis: clear of the zeros, kinks and singularities of phi."""
    ok = np.ones(len(pts), dtype=bool)
    for state in system.steady_states:
        ok &= np.linalg.norm(pts - state, axis=1) > reach
    mags = [np.abs(eig.eval(pts))]
    for j in range(pts.shape[1]):
        for step in (-reach, reach):
            moved = pts.copy()
            moved[:, j] += step
            mags.append(np.abs(eig.eval(moved)))
    mags = np.array(mags)
    lo, hi = np.min(mags, axis=0), np.max(mags, axis=0)
    return ok & np.all(np.isfinite(mags), axis=0) & (lo > 0) & (hi <= spread * lo)


def _clear_of_bistable_curves(pts):
    # bistable2d's eigenfunctions blow up or vanish along the whole curves
    # y1 = 0 and y1 = +-1/4 of its y coordinates, not only at its steady states
    y1 = bistable_transform_inv(pts)[:, 0]
    return (np.abs(y1) > 0.06) & (np.minimum(np.abs(y1 - 0.25), np.abs(y1 + 0.25)) > 0.06)


def comfortable_points(system, eig, n, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = (np.asarray(v) for v in SAMPLE_BOXES[system.id])
    pts = lo + (hi - lo) * rng.random((20 * n, system.dim))
    pts = pts[away_from_singularities(system, eig, pts)]
    if system.id == "bistable2d":
        pts = pts[_clear_of_bistable_curves(pts)]
    assert pts.shape[0] >= n
    return pts[:n]


class TestFlow:
    def test_dt_zero_is_identity(self):
        sys_ = make_system("vanderpol")
        fmap = FlowMap(sys_.field, 0.0, method="rk45")
        x = np.array([0.7, -0.2])
        assert np.array_equal(fmap(x), x)

    def test_steady_state_fixed(self):
        sys_ = make_system("quad1d")  # x' = (x-2)(x-3)
        for dt in [0.1, 1.0, 5.0]:
            fmap = FlowMap(sys_.field, dt, method="exact")
            assert fmap(np.array([2.0]))[0] == pytest.approx(2.0, abs=1e-12)

    def test_linear2d_exact_matches_matrix_exponential(self):
        sys_ = make_system("linear2d")
        fmap = FlowMap(sys_.field, 0.2, method="exact")
        x = np.array([1.0, 1.0])
        expected = expm(A_DEFAULT * 0.2) @ x
        assert fmap(x) == pytest.approx(expected, rel=1e-13)

    def test_euler_step_must_divide_dt(self):
        sys_ = make_system("linear2d")
        with pytest.raises(ConfigurationError):
            FlowMap(sys_.field, 0.2, method="euler", step=0.0003)

    @pytest.mark.parametrize("method, dt, step, named", [
        ("rk45", math.inf, None, "dt must be a finite nonnegative number, got inf"),
        ("rk45", math.nan, None, "dt must be a finite nonnegative number, got nan"),
        ("euler", 0.2, math.inf, "euler step must be finite and positive, got inf"),
        ("euler", 0.2, math.nan, "euler step must be finite and positive, got nan"),
    ])
    def test_non_finite_dt_or_step_is_refused(self, method, dt, step, named):
        # dt = inf ran dp45 forever, and an Euler step of inf took 0 steps:
        # an identity flow
        with pytest.raises(ConfigurationError, match=named):
            FlowMap(make_system("linear2d").field, dt, method=method, step=step)

    def test_euler_step_count_is_capped(self):
        # dt / step = 2e299 spun for ever, and 1e-320 overflowed to inf and
        # raised OverflowError on round(inf); the cap itself is allowed
        field = make_system("linear2d").field
        assert FlowMap(field, 1.0, method="euler", step=1.0 / MAX_STEPS).step == 1e-6
        for step, count in [(0.2 / (MAX_STEPS + 1), "1e\\+06"), (1e-300, "2e\\+299"),
                            (1e-320, "inf")]:
            with pytest.raises(ConfigurationError,
                               match=f"euler flow of {count} steps .* over the 1000000-step cap"):
                FlowMap(field, 0.2, method="euler", step=step)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_dp45_refuses_a_non_finite_time(self, t):
        # with t = inf the step stayed inf and the loop never ended; NaN
        # returned the input unmoved
        from koopext.dynamics import dp45

        with pytest.raises(ConfigurationError, match=f"t must be finite, got {t}"):
            dp45(make_system("vanderpol").field.rhs, np.array([[2.0, 0.0]]), t)

    def test_exact_method_requires_closed_form(self):
        sys_ = make_system("vanderpol")
        with pytest.raises(ConfigurationError):
            FlowMap(sys_.field, 0.1, method="exact")

    def test_divergence_guard(self):
        sys_ = make_system("quad1d")
        fmap = FlowMap(sys_.field, 2.0, method="exact")
        with pytest.raises(DivergenceError):
            fmap(np.array([5.0]))

    def test_rk45_against_scipy_reference(self):
        sys_ = make_system("vanderpol")
        fmap = FlowMap(sys_.field, 1.5, method="rk45", rel_tol=1e-10, abs_tol=1e-12)
        x0 = np.array([1.3, -0.4])
        ref = solve_ivp(
            lambda t, u: sys_.field.rhs(u[None, :])[0],
            (0, 1.5),
            x0,
            rtol=1e-12,
            atol=1e-13,
        ).y[:, -1]
        assert fmap(x0) == pytest.approx(ref, rel=1e-8, abs=1e-9)

    @pytest.mark.parametrize("sid", ALL_ANALYTIC_IDS)
    def test_non_finite_state_is_refused_before_the_exact_flow_runs(self, sid):
        # cubic1d's closed form ended in a TypeError on an infinite or NaN state
        fld = make_system(sid).field
        calls = []
        spy = replace(fld, exact_flow=lambda pts, t: calls.append(pts) or fld.exact_flow(pts, t))
        center = np.mean(SAMPLE_BOXES[sid], axis=0)
        for bad in (np.inf, -np.inf, np.nan):
            state = center.copy()
            state[0] = bad
            for field in (fld, spy):
                with pytest.raises(DivergenceError, match="during exact flow"):
                    FlowMap(field, 0.1, method="exact")(state)
        assert calls == []

    @pytest.mark.parametrize("sid", ALL_ANALYTIC_IDS)
    def test_semigroup_property_of_exact_flows(self, sid):
        sys_ = make_system(sid)
        rng = np.random.default_rng(1)
        lo, hi = (np.asarray(v) for v in SAMPLE_BOXES[sid])
        pts = lo + 0.25 * (hi - lo) + 0.5 * (hi - lo) * rng.random((40, sys_.dim))
        f1 = FlowMap(sys_.field, 0.07, method="exact")
        f2 = FlowMap(sys_.field, 0.05, method="exact")
        f12 = FlowMap(sys_.field, 0.12, method="exact")
        lhs = f1(f2(pts))
        rhs = f12(pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1.0 + np.max(np.abs(rhs)))


class TestIntegrationError:
    def test_exact_vs_exact_is_zero(self):
        sys_ = make_system("linear2d")
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.1)
        num = FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), grid)
        exact = FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), grid)
        assert integration_error_sup(num, exact) == 0.0

    def test_euler_error_value_and_monotonicity(self):
        sys_ = make_system("linear2d")
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.05)
        exact = FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), grid)
        eps_coarse = integration_error_sup(
            FlowedGrid.of(FlowMap(sys_.field, 0.2, method="euler", step=0.001), grid), exact
        )
        eps_fine = integration_error_sup(
            FlowedGrid.of(FlowMap(sys_.field, 0.2, method="euler", step=0.0005), grid), exact
        )
        assert 0 < eps_fine < eps_coarse
        # forward Euler is first order
        assert 1.8 <= eps_coarse / eps_fine <= 2.2

    def test_euler_error_against_reference_integration(self):
        # independent oracle: dense-output reference integration at tight tol
        sys_ = make_system("linear2d")
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.5)
        euler = FlowMap(sys_.field, 0.2, method="euler", step=0.001)
        worst = 0.0
        for x in grid.points:
            ref = solve_ivp(
                lambda t, u: A_DEFAULT @ u, (0, 0.2), x, rtol=1e-12, atol=1e-14
            ).y[:, -1]
            worst = max(worst, float(np.linalg.norm(euler(x) - ref)))
        exact = FlowMap(sys_.field, 0.2, method="exact")
        sup = integration_error_sup(FlowedGrid.of(euler, grid), FlowedGrid.of(exact, grid))
        assert sup == pytest.approx(worst, rel=1e-6)

    def test_flowed_grids_must_share_dt_and_points(self):
        sys_ = make_system("linear2d")
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.5)
        exact = FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), grid)
        other_dt = FlowedGrid.of(FlowMap(sys_.field, 0.1, method="exact"), grid)
        shifted = EvalGrid((-0.9, -1.0), (1.1, 1.0), 0.5)
        other_points = FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), shifted)
        with pytest.raises(ConfigurationError, match="dt"):
            integration_error_sup(other_dt, exact)
        with pytest.raises(ConfigurationError, match="points"):
            integration_error_sup(other_points, exact)


class TestMakeSystem:
    def test_bistable_steady_states_under_transform(self):
        sys_ = make_system("bistable2d")
        states = np.array([np.asarray(s) for s in sys_.steady_states])
        expected = {(0.0, 0.0), (0.5078125, 0.125), (-0.4921875, 0.125)}
        got = {tuple(np.round(s, 10)) for s in states}
        assert got == expected
        # the transform pair really is inverse
        rng = np.random.default_rng(0)
        y = rng.uniform(-0.4, 0.4, size=(50, 2))
        assert bistable_transform_inv(bistable_transform(y)) == pytest.approx(y, abs=1e-12)

    def test_quad1d_eigenfunction_zero_and_singularity(self):
        sys_ = make_system("quad1d")
        phi = sys_.analytic_eigenfunctions[0]
        vals = phi.eval(np.array([[2.0], [3.0]]))
        assert vals[0] == 0
        assert singular_mask(vals)[1]

    def test_duffing_spirals_match_printed_location(self):
        sys_ = make_system("duffing")
        xs = sorted(float(s[0]) for s in sys_.steady_states)
        assert xs[0] == pytest.approx(-3.1623, abs=1e-4)
        assert xs[2] == pytest.approx(3.1623, abs=1e-4)

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            make_system("polarLC", mu=-1.0)
        for mu in (-1.0, -0.3):
            with pytest.raises(ConfigurationError, match=f"vanderpol needs mu >= 0, got {mu}"):
                make_system("vanderpol", mu=mu)
        with pytest.raises(ConfigurationError):
            make_system("nosuch")

    @pytest.mark.parametrize("sid", ALL_ANALYTIC_IDS)
    def test_koopman_pde_residual(self, sid):
        sys_ = make_system(sid)
        for eig in sys_.analytic_eigenfunctions:
            pts = comfortable_points(sys_, eig, 1000)
            res = koopman_pde_residual(sys_, eig, pts)
            scale = 1.0 + np.abs(eig.eval(pts))
            assert np.max(res / scale) < 1e-8, f"{sid}/{eig.name}"

    @pytest.mark.parametrize("sid", ALL_ANALYTIC_IDS)
    def test_eigen_relation_under_exact_flow(self, sid):
        sys_ = make_system(sid)
        dt = 0.05
        fmap = FlowMap(sys_.field, dt, method="exact")
        for eig in sys_.analytic_eigenfunctions:
            pts = comfortable_points(sys_, eig, 1000, seed=7)
            v0 = eig.eval(pts)
            v1 = eig.eval(fmap(pts))
            resid = np.abs(v1 - np.exp(eig.eigenvalue * dt) * v0)
            assert np.nanmax(resid / (1.0 + np.abs(v0))) < 1e-8, f"{sid}/{eig.name}"

    def test_cubic1d_power_relation_between_adjacent_eigenfunctions(self):
        sys_ = make_system("cubic1d")  # a=-1, b=0, c=3
        phi1, phi2, _ = sys_.analytic_eigenfunctions
        lam1, lam2 = phi1.eigenvalue.real, phi2.eigenvalue.real
        x = np.linspace(-0.9, -0.1, 50).reshape(-1, 1)  # inside (a, b)
        v1 = np.abs(phi1.eval(x))
        v2 = np.abs(phi2.eval(x))
        assert v1 == pytest.approx(v2 ** (lam1 / lam2), rel=1e-10)

    @pytest.mark.parametrize("sid", ALL_ANALYTIC_IDS)
    def test_every_singular_evaluation_is_tagged(self, sid):
        # linear2d and lin5d returned inf+0j for an infinite coordinate
        sys_ = make_system(sid)
        center = np.mean(SAMPLE_BOXES[sid], axis=0)
        rows = []
        for j in range(sys_.dim):
            for bad in (np.inf, -np.inf, np.nan):
                row = center.copy()
                row[j] = bad
                rows.append(row)
        names = [eig.name for eig in sys_.analytic_eigenfunctions]
        assert {name for s, name in SINGULAR_POINTS if s == sid} <= set(names)
        for eig in sys_.analytic_eigenfunctions:
            pts = np.vstack([rows, *SINGULAR_POINTS.get((sid, eig.name), [])])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = eig.eval(pts)
            assert vals.dtype == complex
            assert np.all(np.isnan(vals.real) & np.isnan(vals.imag)), f"{sid}/{eig.name}"


class TestSampling:
    def test_linear2d_400_pairs(self):
        sys_ = make_system("linear2d")
        snaps = sample_snapshots(sys_, 400, 0.2, ((-2, -2), (2, 2)), seed=11)
        assert len(snaps) == 400
        assert snaps.x.shape == (400, 2)
        assert np.all(snaps.x >= -2) and np.all(snaps.x <= 2)
        expected_y = snaps.x @ expm(A_DEFAULT * 0.2).T
        assert snaps.y == pytest.approx(expected_y, rel=1e-12)

    def test_seed_determinism(self):
        sys_ = make_system("linear2d")
        a = sample_snapshots(sys_, 64, 0.2, ((-2, -2), (2, 2)), seed=5)
        b = sample_snapshots(sys_, 64, 0.2, ((-2, -2), (2, 2)), seed=5)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_multi_sample_trajectories_format(self):
        sys_ = make_system("duffing")
        snaps = sample_snapshots(
            sys_, 300, 0.25, ((-6, -6), (6, 6)), seed=3, samples_per_traj=11
        )
        assert len(snaps) == 300  # 30 trajectories x 10 transitions
        assert snaps.metadata["samples_per_traj"] == 11
        # consecutive pairs chain within each trajectory block
        assert np.array_equal(snaps.x[1], snaps.y[0])
        assert not np.array_equal(snaps.x[10], snaps.y[9])

    def test_pair_count_divisibility(self):
        sys_ = make_system("duffing")
        with pytest.raises(ConfigurationError):
            sample_snapshots(sys_, 301, 0.25, ((-6, -6), (6, 6)), 0, samples_per_traj=11)

    @pytest.mark.parametrize("box, dt, named", [
        (((-0.0, -0.0), (0.0, 0.0)), 0.2,
         "sampling box needs hi > lo on every axis, got lo = (-0.0, -0.0), hi = (0.0, 0.0)"),
        (((-2, -2), (2, 2)), 0.0, "dt must be positive, got 0.0"),
    ])
    def test_empty_box_or_zero_dt_is_refused(self, box, dt, named):
        # `simulate --box 0` and `--dt 0` now stop at their flags; the sampler
        # refuses them too
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            sample_snapshots(make_system("linear2d"), 8, dt, box, seed=0)

    def test_transform_snapshots(self):
        sys_ = make_system("linear2d")
        snaps = sample_snapshots(sys_, 16, 0.02, ((-2, -2), (2, 2)), seed=2)
        mapped = transform_snapshots(snaps, lambda p: p * 2.0)
        assert mapped.x == pytest.approx(2 * snaps.x)

    def test_snapshot_csv_round_trip(self, tmp_path):
        sys_ = make_system("linear2d")
        snaps = sample_snapshots(sys_, 8, 0.2, ((-2, -2), (2, 2)), seed=1)
        stem = str(tmp_path / "snaps")
        write_snapshots(stem, snaps)
        back = read_snapshots(stem)
        assert np.array_equal(back.x, snaps.x)
        assert back.dt == snaps.dt
        assert back.metadata["seed"] == 1


    def test_snapshot_csv_bytes_match_the_row_loop(self, tmp_path):
        # the earlier per-row csv.writer loop, kept as the reference
        rng = np.random.default_rng(4)
        x = 10.0 ** rng.uniform(-12, 12, (500, 3)) * rng.standard_normal((500, 3))
        x[0] = [0.0, -0.0, np.nan]
        snaps = SnapshotSet(x=x, y=-x[::-1] / 3.0, dt=0.1)
        write_snapshots(str(tmp_path / "new"), snaps)
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "x3", "y1", "y2", "y3"])
            for xr, yr in zip(snaps.x, snaps.y):
                w.writerow([format(v, ".17g") for v in (*xr, *yr)])
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\r\n") == 501 == new.count(b"\n")


class TestUnstableManifold:
    def test_duffing_samples_inside_window_and_tangent(self):
        sys_ = make_system("duffing")
        window = ((-2.0, -1.33), (2.0, 1.3))
        pts = unstable_manifold_sample(sys_, 100, window)
        assert pts.shape == (100, 2)
        lo, hi = (np.asarray(v) for v in window)
        assert np.all(pts >= lo - 1e-9) and np.all(pts <= hi + 1e-9)
        # the vector field must be tangent to the sampled polyline
        worst = 0.0
        for i in range(1, 99):
            d = pts[i + 1] - pts[i - 1]
            d = d / np.linalg.norm(d)
            f = sys_.field.rhs(pts[i][None, :])[0]
            f = f / np.linalg.norm(f)
            angle = math.acos(min(1.0, abs(float(d @ f))))
            worst = max(worst, angle)
        assert worst < 1e-2

    def test_single_point_is_seed(self):
        sys_ = make_system("duffing")
        pts = unstable_manifold_sample(sys_, 1, ((-2, -2), (2, 2)))
        assert np.linalg.norm(pts[0]) == pytest.approx(1e-6, rel=1e-6)

    def test_bistable_endpoints_approach_the_nodes(self):
        sys_ = make_system("bistable2d")
        window = ((-0.6, -0.2), (0.6, 0.4))
        pts = unstable_manifold_sample(sys_, 60, window)
        nodes = [s for s in sys_.steady_states if abs(s[0]) > 0.1]
        dist_to_nearest = lambda p: min(np.linalg.norm(p - n) for n in nodes)
        # walking outward from the middle, the distance to the nodes shrinks
        mid = len(pts) // 2
        assert dist_to_nearest(pts[0]) < dist_to_nearest(pts[mid])
        assert dist_to_nearest(pts[-1]) < dist_to_nearest(pts[mid])

    def test_no_saddle_rejected(self):
        sys_ = make_system("linear2d")
        with pytest.raises(Exception):
            unstable_manifold_sample(sys_, 10, ((-1, -1), (1, 1)))


class TestPaperScaleSampling:
    def test_thirty_thousand_pair_format(self):
        # 3000 trajectories of 11 samples each at dt = 0.25
        sys_ = make_system("duffing")
        snaps = sample_snapshots(
            sys_, 30000, 0.25, ((-6, -6), (6, 6)), seed=1, samples_per_traj=11
        )
        assert len(snaps) == 30000
        assert snaps.x.shape == (30000, 2) and snaps.y.shape == (30000, 2)
        # chained within trajectories, independent across them
        assert np.array_equal(snaps.x[5], snaps.y[4])
        assert not np.array_equal(snaps.x[10], snaps.y[9])


def _seven_term_dp_step(rhs, y, h, k0):
    # the stages in generator-sum form over every weight of each _DP_A row,
    # _DP_A[6]'s zero on k[1] included; returns (stage 7's input, stages)
    from koopext.dynamics import _DP_A

    k = [k0]
    for i in range(1, 7):
        yi = y + h * sum(a * ki for a, ki in zip(_DP_A[i], k))
        k.append(rhs(yi))
    return yi, k


def _reference_dp_step(rhs, y, h):
    # the generator-sum form of one Dormand-Prince step that _dp_step replaces
    from koopext.dynamics import _DP_B5, _DP_ERR

    _, k = _seven_term_dp_step(rhs, y, h, rhs(y))
    y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k) if b != 0.0)
    err = h * sum(e * ki for e, ki in zip(_DP_ERR, k) if e != 0.0)
    return y5, err, k


def _reference_dp45(rhs, y0, t, rel_tol=1e-8, abs_tol=1e-10):
    # the adaptive loop dp45 ran before it carried stages over, 7 rhs calls per
    # attempt; returns (y, accepted steps, rejected steps)
    y = np.array(y0, dtype=float)
    sign = 1.0 if t > 0 else -1.0
    remaining = abs(t)
    h = remaining / 16.0
    accepted = rejected = 0
    while remaining > 0.0:
        h = min(h, remaining)
        y_new, err, _ = _reference_dp_step(lambda u: sign * rhs(u), y, h)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.nanmax(np.sqrt(np.mean((err / scale) ** 2, axis=-1))))
        if not math.isfinite(err_norm):
            err_norm = 10.0
        if err_norm <= 1.0:
            y = y_new
            remaining -= h
            accepted += 1
        else:
            rejected += 1
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y, accepted, rejected


class TestDormandPrinceStep:
    @staticmethod
    def assert_same_bits(a, b):
        assert np.array_equal(a, b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("sign", [None, 1.0, -1.0])
    def test_matches_the_generator_sum_bit_for_bit(self, d, sign):
        from koopext.dynamics import _DP_ERR_NZ, _dp_combine, _dp_step

        rng = np.random.default_rng(d)
        c = rng.normal(size=d)

        def field(u):
            # keeps the sign of a zero row, so the 0 a sum() starts from shows in the bits
            return np.sin(u) - u * u - c * np.roll(u, 1, axis=1) ** 2

        # dp45 passes the sign-flipped lambda; None is the plain rhs
        rhs = field if sign is None else (lambda u: sign * field(u))
        y = rng.normal(size=(64, d))
        y[:4] = -0.0
        for h in (0.1, 1e-3, 0.37):
            y5, k = _dp_step(rhs, y, h, rhs(y))
            want_y5, want_err, want_k = _reference_dp_step(rhs, y, h)
            self.assert_same_bits(y5, want_y5)
            assert len(k) == len(want_k) == 7
            for k_got, k_want in zip(k, want_k):
                self.assert_same_bits(k_got, k_want)
            # the 7th stage is the next step's 1st
            self.assert_same_bits(k[6], rhs(want_y5))
            # the error estimate as dp45 forms it
            err = _dp_combine(k, _DP_ERR_NZ, h, np.empty_like(y))
            self.assert_same_bits(err, want_err)

    def test_zero_stages_match_the_seven_term_rows(self):
        from koopext.dynamics import _dp_step

        c = np.array([1.5, -2.0, 0.5])

        def rhs(u):
            # keeps every zero signed: c * (-0) is -0 or +0 by the sign of c
            return c * u

        y = np.zeros((6, 3))
        y[1::2] = -0.0
        y[4:, 2] = np.random.default_rng(3).normal(size=2)
        for h in (0.1, 1e-3, 0.37):
            y5, k = _dp_step(rhs, y, h, rhs(y))
            want_y7, want_k = _seven_term_dp_step(rhs, y, h, rhs(y))
            # every stage of the first four rows is exactly +0 or -0, both signs present
            zeros = np.stack(want_k)[:, :4]
            assert np.all(zeros == 0.0)
            assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))
            self.assert_same_bits(y5, want_y7)
            for k_got, k_want in zip(k, want_k):
                self.assert_same_bits(k_got, k_want)

    @np.errstate(over="ignore", invalid="ignore")
    def test_non_finite_second_stage_ends_in_the_same_divergence_error(self, monkeypatch):
        from koopext import dynamics, phase
        from koopext.dynamics import VectorField, _dp_step, dp45
        from koopext.phase import laplace_average_batch

        # x' = e^x blows up in finite time: from x = 700 the 2nd stage overflows
        rhs = np.exp
        y0 = np.array([[700.0], [0.5], [-1.0]])
        _, k = _dp_step(rhs, y0, 0.1, rhs(y0))
        assert np.isfinite(k[0][0, 0]) and not np.isfinite(k[1][0, 0])
        assert np.all(np.isfinite(np.stack(k)[:, 1:]))

        def messages():
            out = []
            with pytest.raises(DivergenceError) as flow:
                dp45(rhs, y0, 0.1)
            out.append(str(flow.value))
            with pytest.raises(DivergenceError) as average:
                laplace_average_batch(
                    VectorField(1, rhs), lambda p: p[:, 0].astype(complex), -0.5, y0, 1.0, 0.1
                )
            out.append(str(average.value))
            return out

        got = messages()
        monkeypatch.setattr(dynamics, "_dp_step", _seven_term_dp_step)
        monkeypatch.setattr(phase, "_dp_step", _seven_term_dp_step)
        assert got == messages()
        assert "during integration" in got[0] and "in 1 of 3 rows" in got[1]

    @pytest.mark.parametrize("t", [8.0, -4.0])
    def test_dp45_matches_the_seven_call_loop_through_rejections(self, t):
        from koopext.dynamics import dp45

        fld = make_system("vanderpol", mu=1.0).field
        calls = []

        def counting_rhs(u):
            calls.append(len(u))
            return fld.rhs(u)

        # inside the cycle, so the backward flow stays bounded
        y0 = np.random.default_rng(4).uniform(-1.0, 1.0, (40, 2))
        y0[0] = -0.0
        got = dp45(counting_rhs, y0, t)
        n_calls = len(calls)
        want, accepted, rejected = _reference_dp45(fld.rhs, y0, t)
        # the first step, t/16, is too long for the tolerance, so the
        # rejected path, which reuses the 1st stage, runs at least once
        assert rejected > 0
        self.assert_same_bits(got, want)
        # one call at the start, then 6 per attempt instead of 7
        assert n_calls == 6 * (accepted + rejected) + 1

    def test_vanderpol_rhs_matches_column_stack(self):
        sys_ = make_system("vanderpol", mu=0.7)
        p = np.random.default_rng(0).normal(size=(101, 2))
        x, y = p[:, 0], p[:, 1]
        want = np.column_stack([y, 0.7 * (1.0 - x * x) * y - x])
        self.assert_same_bits(sys_.field.rhs(p), want)


class TestDenseDriver:
    """_dp45_dense, the single-trajectory driver behind the limit-cycle and
    unstable-manifold solves, against solve_ivp as a test-only oracle."""

    @staticmethod
    def vanderpol_orbit():
        from koopext.dynamics import _dp45_dense

        fld = make_system("vanderpol", mu=0.3).field
        orbit, t_event = _dp45_dense(fld.rhs, [2.0, 0.0], 60.0, 1e-12, 1e-12)
        ref = solve_ivp(lambda t, u: fld.rhs(u), (0.0, 60.0), [2.0, 0.0], rtol=1e-12,
                        atol=1e-12, dense_output=True)
        return orbit, t_event, ref

    def test_vanderpol_state_after_60_units_matches_solve_ivp(self):
        orbit, t_event, ref = self.vanderpol_orbit()
        assert t_event is None
        assert orbit.t[0] == 0.0 and orbit.t[-1] == 60.0
        assert np.max(np.abs(orbit.y[-1] - ref.y[:, -1])) < 1e-9

    def test_dense_output_is_the_nodes_and_between_them_solve_ivps(self):
        orbit, _, ref = self.vanderpol_orbit()
        nodes = orbit(orbit.t)
        assert nodes.shape == (2, len(orbit.t))
        assert nodes.T.tobytes() == orbit.y.tobytes()
        assert orbit(orbit.t[7]).tobytes() == orbit.y[7].tobytes()
        mids = 0.5 * (orbit.t[1:] + orbit.t[:-1])
        assert np.max(np.abs(orbit(mids) - ref.sol(mids))) < 1e-9
        assert orbit(mids[3]).shape == (2,)

    def test_section_stops_at_the_first_upward_return(self):
        # the harmonic oscillator from (1, 0), whose flow there is (0, -1):
        # g = -(y - 0) rises from 0 at t = 0 and next crosses upward at 2 pi
        from koopext.dynamics import _dp45_dense

        rhs = lambda u: np.stack([u[..., 1], -u[..., 0]], axis=-1)  # noqa: E731
        orbit, t_event = _dp45_dense(rhs, [1.0, 0.0], 100.0, 1e-12, 1e-12,
                                    section=([1.0, 0.0], [0.0, -1.0]))
        assert t_event == pytest.approx(2 * math.pi, rel=1e-10)
        assert orbit.t[-2] < t_event <= orbit.t[-1] < 3 * math.pi
        _, none = _dp45_dense(rhs, [1.0, 0.0], 6.0, 1e-12, 1e-12,
                             section=([1.0, 0.0], [0.0, -1.0]))
        assert none is None

    # each refusal raises with no warning, also when every row's error is NaN
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", ["non-finite t", "state past the guard", "blow-up",
                                      "collapsed step"])
    def test_refusals_match_dp45(self, case):
        from koopext.dynamics import dp45, _dp45_dense

        rhs, y0, t = {
            "non-finite t": (lambda u: -u, [1.0], math.inf),
            "state past the guard": (lambda u: -u, [2e8], 1.0),
            # x' = x^2 from 1 blows up at t = 1
            "blow-up": (lambda u: u * u, [1.0], 2.0),
            # x' = 1 up to x = 1.5, where the field is NaN: the steps shrink
            "collapsed step": (lambda u: np.where(u < 1.5, 1.0, np.nan), [0.0], 2.0),
        }[case]
        error, named = {
            "non-finite t": (ConfigurationError, "t must be finite"),
            "state past the guard": (DivergenceError, "state exceeded 1e\\+08 during integration"),
            "blow-up": (DivergenceError, "state exceeded 1e\\+08 during integration"),
            "collapsed step": (DivergenceError, "adaptive step collapsed"),
        }[case]
        with pytest.raises(error, match=named):
            dp45(rhs, np.array([y0]), t)
        with pytest.raises(error, match=named):
            _dp45_dense(rhs, y0, t, 1e-8, 1e-10)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_a_time_that_is_not_positive_is_refused(self, t):
        from koopext.dynamics import _dp45_dense

        with pytest.raises(ConfigurationError, match=f"t must be finite and positive, got {t}"):
            _dp45_dense(lambda u: -u, [1.0], t, 1e-8, 1e-10)


def _pre_change_dp_combine(terms, h):
    # _dp_combine before the stage table: one scratch array per stage
    terms = iter(terms)
    c, ki = next(terms)
    acc = np.multiply(ki, c)
    acc += 0
    tmp = np.empty_like(acc)
    for c, ki in terms:
        acc += np.multiply(ki, c, out=tmp)
    acc *= h
    return acc


def _pre_change_dp_step(rhs, y, h, k0):
    # _dp_step before the stage table: a generator of (weight, stage) pairs
    from koopext.dynamics import _DP_A

    nonzero = tuple(tuple((a, j) for j, a in enumerate(row) if a != 0.0) for row in _DP_A)
    k = [k0]
    for i in range(1, 7):
        yi = _pre_change_dp_combine(((a, k[j]) for a, j in nonzero[i]), h)
        yi += y
        k.append(rhs(yi))
    return yi, k


def _pre_change_vanderpol_rhs(mu):
    # the in-place (n, 2) Van der Pol rhs that the (..., d) formula replaced
    def rhs(p):
        x, y = p[:, 0], p[:, 1]
        out = np.empty((len(p), 2))
        out[:, 0] = y
        dy = out[:, 1]
        np.multiply(x, x, out=dy)
        np.subtract(1.0, dy, out=dy)
        dy *= mu
        dy *= y
        dy -= x
        return out

    return rhs


# a box per system in which every state is in the rhs's domain
RHS_BOXES = {**SAMPLE_BOXES, "vanderpol": ((-3.0, -3.0), (3.0, 3.0)),
             "duffing": ((-3.0, -3.0), (3.0, 3.0))}


class TestSingleStateRhs:
    """One rhs formula serves a state (d,) and a batch (n, d), bit for bit."""

    def test_every_registered_system_has_a_box(self):
        from koopext.dynamics import _FACTORIES

        assert set(RHS_BOXES) == set(_FACTORIES)

    @pytest.mark.parametrize("sid", sorted(RHS_BOXES))
    def test_single_state_matches_the_one_row_batch(self, sid):
        fld = make_system(sid).field
        lo, hi = (np.asarray(v) for v in RHS_BOXES[sid])
        states = lo + (hi - lo) * np.random.default_rng(11).random((200, fld.dim))
        states[0] = -0.0
        for u in states:
            got = fld.rhs(u)
            want = fld.rhs(u[None])[0]
            assert got.shape == u.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert fld.rhs(states).shape == states.shape

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_vanderpol_matches_the_in_place_rhs(self, order):
        p = np.array(np.random.default_rng(2).normal(size=(301, 2)), order=order)
        p[:3] = -0.0
        got = make_system("vanderpol", mu=0.3).field.rhs(p)
        want = _pre_change_vanderpol_rhs(0.3)(p)
        assert got.tobytes() == want.tobytes()
        assert got.flags[f"{order}_CONTIGUOUS"]


class TestStageTable:
    """_dp_step against a copy of the step it replaced."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("sid", ["vanderpol", "duffing", "lin5d", "cubic1d"])
    def test_matches_the_pre_change_step(self, sid, order):
        from koopext.dynamics import _dp_step

        fld = make_system(sid).field
        lo, hi = (np.asarray(v) for v in RHS_BOXES[sid])
        y = lo + (hi - lo) * np.random.default_rng(5).random((97, fld.dim))
        y[:2] = -0.0
        y = np.array(y, order=order)
        for h in (0.1, 1e-3, -0.37):
            got_y, got_k = _dp_step(fld.rhs, y, h, fld.rhs(y))
            want_y, want_k = _pre_change_dp_step(fld.rhs, y, h, fld.rhs(y))
            assert got_y.tobytes() == want_y.tobytes()
            assert [k.tobytes() for k in got_k] == [k.tobytes() for k in want_k]


# Frozen copies of the five systems as they were written out by hand before
# the _linear and _seen_through builders derived them: the reference the
# builders are held to bit for bit.


def _frozen_propagator(A):
    return functools.cache(lambda t: expm(A * t))


def _left_eigenvectors_2x2(A: np.ndarray):
    # verbatim from src/ before eigensolve.eigentriplets took its place
    lams, W = np.linalg.eig(A.T)
    order = np.argsort(lams.real)
    vecs = []
    for j in order:
        w = W[:, j].real
        w = w / np.linalg.norm(w)
        k = int(np.argmax(np.abs(w)))
        if w[k] < 0:
            w = -w
        vecs.append((float(lams[j].real), w))
    return vecs


def _frozen_linear2d():
    from koopext.dynamics import AnalyticEigenfunction, BenchmarkSystem, VectorField

    A = np.array(((-0.9, 0.1), (0.0, -0.8)))
    propagator = _frozen_propagator(A)
    funcs = tuple(
        AnalyticEigenfunction(complex(lam), lambda pts, w=w: pts @ w, f"<w,{lam:g}>")
        for lam, w in _left_eigenvectors_2x2(A)
    )
    return BenchmarkSystem("linear2d", VectorField(2, lambda x: x @ A.T,
                                                   lambda pts, t: pts @ propagator(t).T),
                           (np.zeros(2),), funcs)


def _frozen_softplus2d():
    from koopext.dynamics import (AnalyticEigenfunction, BenchmarkSystem, VectorField,
                                  softplus, softplus_inv)

    A = np.array(((-0.9, 0.1), (0.0, -0.8)))
    propagator = _frozen_propagator(A)

    def rhs(y):
        x = softplus_inv(y)
        return (1.0 - np.exp(-y)) * (x @ A.T)

    def exact_flow(pts, t):
        x = softplus_inv(pts)
        return softplus(x @ propagator(t).T)

    funcs = tuple(
        AnalyticEigenfunction(complex(lam), lambda pts, w=w: softplus_inv(pts) @ w,
                              f"<w,{lam:g}> o softplus_inv")
        for lam, w in _left_eigenvectors_2x2(A)
    )
    return BenchmarkSystem("softplus2d", VectorField(2, rhs, exact_flow),
                           (softplus(np.zeros(2)),), funcs)


def _frozen_lin5d():
    from koopext.dynamics import AnalyticEigenfunction, BenchmarkSystem, VectorField

    a, b = -0.4, -1.0
    A = np.array([[a, 0, 0, 0, 0], [0, b, -b, 0, 0], [0, 0, 2 * a, 0, 0],
                  [0, 0, 0, a + b, -b], [0, 0, 0, 0, 3 * a]], dtype=float)
    propagator = _frozen_propagator(A)
    r = (2 * a - b) / b
    lefts = [
        (a, np.array([1.0, 0, 0, 0, 0])),
        (2 * a, np.array([0.0, 0, 1, 0, 0])),
        (3 * a, np.array([0.0, 0, 0, 0, 1])),
        (b, np.array([0.0, r, 1, 0, 0])),
        (a + b, np.array([0.0, 0, 0, r, 1])),
    ]
    funcs = tuple(
        AnalyticEigenfunction(complex(lam), lambda pts, w=w: pts @ w, f"phi{i + 1}")
        for i, (lam, w) in enumerate(lefts)
    )
    return BenchmarkSystem("lin5d", VectorField(5, lambda y: y @ A.T,
                                                lambda pts, t: pts @ propagator(t).T),
                           (np.zeros(5),), funcs)


def _frozen_saddle2d():
    from koopext.dynamics import (AnalyticEigenfunction, BenchmarkSystem, VectorField,
                                  _SADDLE_R as R, _saddle_embed)

    lam1, lam2 = -1.0, 1.5
    M = R @ np.diag([lam1, lam2]) @ R.T

    def rhs(z):
        with np.errstate(divide="ignore", invalid="ignore"):
            L = np.log1p(z)
        return (z + 1.0) * (L @ M.T)

    def exact_flow(z, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            x0 = math.pi * (np.log1p(z) @ R)
        return _saddle_embed(x0 * np.array([math.exp(lam1 * t), math.exp(lam2 * t)]))

    funcs = tuple(
        AnalyticEigenfunction(complex(lam),
                              lambda z, idx=idx: math.pi * (np.log1p(z) @ R)[:, idx],
                              f"phi{idx + 1}")
        for idx, lam in enumerate((lam1, lam2))
    )
    return BenchmarkSystem("saddle2d", VectorField(2, rhs, exact_flow), (np.zeros(2),), funcs)


def _frozen_bistable2d():
    from koopext.dynamics import AnalyticEigenfunction, BenchmarkSystem, VectorField

    lam_u, lam_s2, lam_s1 = 1.0 / 16.0, -1.0, -1.0 / 8.0

    def rhs_y(y):
        y1, y2 = y[:, 0], y[:, 1]
        return np.column_stack([-(y1 - 0.25) * (y1 + 0.25) * y1, -y2])

    def jac_h(y):
        y1, y2 = y[:, 0], y[:, 1]
        J = np.empty((y.shape[0], 2, 2))
        J[:, 0, 0] = 2.0 * (1.0 + 4.0 * y1**3 + 4.0 * y1 * y2)
        J[:, 0, 1] = 2.0 * (2.0 * y1**2 + 2.0 * y2)
        J[:, 1, 0] = 4.0 * y1
        J[:, 1, 1] = 2.0
        return J

    def rhs(x):
        y = bistable_transform_inv(np.reshape(x, (-1, 2)))
        return np.einsum("nij,nj->ni", jac_h(y), rhs_y(y)).reshape(np.shape(x))

    def flow_y(y, t):
        y1, y2 = y[:, 0], y[:, 1]
        K, r = 1.0 / 16.0, 1.0 / 8.0
        u = y1**2
        with np.errstate(divide="ignore", invalid="ignore"):
            ut = np.where(u > 0, K / (1.0 + (K / u - 1.0) * math.exp(-r * t)), 0.0)
        return np.column_stack([np.sign(y1) * np.sqrt(ut), y2 * math.exp(-t)])

    def power_eig(exponent, lam, name):
        def evaluator(x):
            y1 = bistable_transform_inv(x)[:, 0]
            return np.abs((y1**2 - 1.0 / 16.0) / y1**2) ** exponent

        return AnalyticEigenfunction(complex(lam), evaluator, name)

    nodes_y = (np.array([0.0, 0.0]), np.array([0.25, 0.0]), np.array([-0.25, 0.0]))
    return BenchmarkSystem(
        "bistable2d",
        VectorField(2, rhs, lambda x, t: bistable_transform(flow_y(bistable_transform_inv(x), t))),
        tuple(bistable_transform(n)[0] for n in nodes_y),
        (power_eig(-0.5, lam_u, "phi1_unstable"), power_eig(1.0, lam_s1, "phi1_node"),
         AnalyticEigenfunction(complex(lam_s2),
                               lambda x: np.abs(bistable_transform_inv(x)[:, 1]), "phi2")),
    )


FROZEN = {"linear2d": _frozen_linear2d, "softplus2d": _frozen_softplus2d,
          "lin5d": _frozen_lin5d, "saddle2d": _frozen_saddle2d,
          "bistable2d": _frozen_bistable2d}

# rows outside each system's domain or on an eigenfunction's singular set,
# signed zeros among them
EDGE_ROWS = {
    "linear2d": [[np.inf, 0.0], [np.nan, 1.0], [-0.0, -0.0]],
    "softplus2d": [[0.0, 1.0], [-1.0, 0.5], [1.0, -0.0], [800.0, 1.0], [np.inf, 1.0]],
    "lin5d": [[np.inf, 0.0, 0.0, 0.0, 0.0], [-0.0] * 5],
    "saddle2d": [[-1.0, 0.0], [0.0, -1.0], [-2.0, 0.3], [-0.0, -0.0], [0.0, -0.0]],
    "bistable2d": [[0.5078125, 0.125], [-0.4921875, 0.125], [0.0, 0.0], [-0.0, -0.0]],
}


# the systems flowed by `_linear`'s eigenvector propagator; their frozen
# copies flow through expm
EIGENVECTOR_FLOWED = ("linear2d", "softplus2d", "lin5d")


class TestBuilderBitIdentity:
    """The systems `_linear` and `_seen_through` build against the frozen
    hand-written copies above. Every eigenfunction value, eigenvalue and
    steady state keeps its bits, and so does every flow but those of the
    systems `_linear` flows by its eigenvector propagator: at t > 0 these
    differ from the frozen copies' expm flows by rounding, and are held to
    1e-13 of each row's norm (2.5e-14 measured, lin5d at t = 1.7; expm is
    the less accurate of the two, see TestLinearPropagator). At t = 0 they
    keep their bits too. saddle2d's rhs is the one other value that moves:
    the derived (z + 1) (v R^T / pi), v = diag(-1, 1.5) pi log1p(z) R, rounds
    otherwise than the hand-reduced (z + 1) (log1p(z) M^T), M = R diag R^T.
    Both lie within 8.5e-16 of an extended-precision value of the field on
    400,000 points, and within 1.2e-15 of each other; that gap is held to
    2e-15, relative to the row's norm."""

    @staticmethod
    def batch(sid, dim):
        lo, hi = (np.asarray(v) for v in SAMPLE_BOXES[sid])
        pts = lo + (hi - lo) * np.random.default_rng(17).random((2000, dim))
        return np.vstack([pts, EDGE_ROWS[sid]])

    @pytest.mark.parametrize("sid", sorted(FROZEN))
    def test_flows_eigenfunctions_and_steady_states_keep_their_bits(self, sid):
        new, old = make_system(sid), FROZEN[sid]()
        pts = self.batch(sid, new.dim)
        assert (new.id, new.dim) == (old.id, old.dim)
        for t in (0.0, 0.05, 0.3, 1.7):
            with np.errstate(all="ignore"):
                got, want = new.field.exact_flow(pts, t), old.field.exact_flow(pts, t)
            finite = np.all(np.isfinite(want), axis=1)
            # saddle2d's rows with a coordinate <= -1 have no linear
            # coordinates: their flow is NaN where the hand-reduced form
            # gave -1 beside a NaN, and FlowMap refuses both
            same = finite if sid == "saddle2d" else slice(None)
            if sid in EIGENVECTOR_FLOWED and t > 0:
                gap = np.linalg.norm(got[finite] - want[finite], axis=1)
                assert np.all(gap <= 1e-13 * np.linalg.norm(want[finite], axis=1))
            else:
                assert got[same].tobytes() == want[same].tobytes()
            assert np.array_equal(np.all(np.isfinite(got), axis=1), finite)
        assert [e.eigenvalue for e in new.analytic_eigenfunctions] == [
            e.eigenvalue for e in old.analytic_eigenfunctions]
        for e_new, e_old in zip(new.analytic_eigenfunctions, old.analytic_eigenfunctions):
            assert e_new.eval(pts).tobytes() == e_old.eval(pts).tobytes()
        assert [(s.shape, s.tobytes()) for s in new.steady_states] == [
            (np.shape(s), np.asarray(s).tobytes()) for s in old.steady_states]

    @pytest.mark.parametrize("sid", sorted(FROZEN))
    def test_rhs_keeps_its_bits_but_saddle2d_moves_by_rounding(self, sid):
        new, old = make_system(sid), FROZEN[sid]()
        pts = self.batch(sid, new.dim)
        with np.errstate(all="ignore"):
            got, want = new.field.rhs(pts), old.field.rhs(pts)
        if sid != "saddle2d":
            assert got.tobytes() == want.tobytes()
            return
        finite = np.all(np.isfinite(want), axis=1)
        assert np.array_equal(np.all(np.isfinite(got), axis=1), finite)
        gap = np.linalg.norm(got[finite] - want[finite], axis=1)
        assert np.all(gap <= 2e-15 * np.linalg.norm(want[finite], axis=1))

    @pytest.mark.parametrize("sid", sorted(FROZEN))
    def test_single_state_rhs_has_the_one_row_batch_bits(self, sid):
        fld = make_system(sid).field
        with np.errstate(all="ignore"):
            for u in self.batch(sid, fld.dim)[-200:]:
                assert fld.rhs(u).tobytes() == fld.rhs(u[None])[0].tobytes()

    def test_names_of_linear_eigenfunctions_count_up_and_conjugates_keep_them(self):
        names = {sid: [e.name for e in make_system(sid).analytic_eigenfunctions]
                 for sid in FROZEN}
        assert names["linear2d"] == names["softplus2d"] == ["phi1", "phi2"]
        assert names["lin5d"] == [f"phi{i}" for i in range(1, 6)]
        for sid in ("saddle2d", "bistable2d"):
            assert names[sid] == [e.name for e in FROZEN[sid]().analytic_eigenfunctions]


class TestLinearPropagator:
    """`_linear`'s flow x P(t)^T, P(t) = W^-1 e^{Lambda t} W from the left
    eigenpairs, against scipy's expm. Against a 40-digit reference (mpmath)
    on 300 t in [0.01, 10], P(t) is within 7.8e-16 (linear2d) and 8.5e-16
    (lin5d) of the truth in the 2-norm, relative to |e^{At}|, and expm within
    4.8e-13 and 4.4e-14: the bound below is set by expm's error."""

    @staticmethod
    def A(sys_):
        return sys_.field.rhs(np.eye(sys_.dim)).T

    @pytest.mark.parametrize("sid", ["linear2d", "lin5d"])
    def test_flow_at_zero_returns_its_input_bit_for_bit(self, sid):
        sys_ = make_system(sid)
        pts = np.random.default_rng(2).uniform(-2.0, 2.0, (500, sys_.dim))
        assert sys_.field.exact_flow(pts, 0.0).tobytes() == pts.tobytes()

    @pytest.mark.parametrize("sid", ["linear2d", "lin5d"])
    def test_semigroup_property_over_long_times(self, sid):
        sys_ = make_system(sid)
        flow = sys_.field.exact_flow
        pts = np.random.default_rng(3).uniform(-2.0, 2.0, (500, sys_.dim))
        for s, t in ((0.7, 2.3), (4.0, 5.5), (0.01, 9.0)):
            # measured 6.2e-16 (linear2d) and 4.4e-16 (lin5d) of the scale
            lhs, rhs = flow(flow(pts, s), t), flow(pts, s + t)
            scale = np.linalg.norm(pts, axis=1) * np.linalg.norm(expm(self.A(sys_) * (s + t)), 2)
            assert np.all(np.linalg.norm(lhs - rhs, axis=1) <= 1e-14 * scale)

    @pytest.mark.parametrize("sid", ["linear2d", "lin5d"])
    def test_flow_matches_expm_on_20000_points(self, sid):
        # 200 times t in [0.01, 10], 100 points each; measured 4.4e-13
        # (linear2d) and 3.0e-14 (lin5d) of |x| |e^{At}|
        sys_ = make_system(sid)
        rng = np.random.default_rng(4)
        A = self.A(sys_)
        worst = 0.0
        for t in rng.uniform(0.01, 10.0, 200):
            pts = rng.uniform(-2.0, 2.0, (100, sys_.dim))
            E = expm(A * t)
            gap = np.linalg.norm(sys_.field.exact_flow(pts, t) - pts @ E.T, axis=1)
            worst = max(worst, np.max(gap / (np.linalg.norm(pts, axis=1) * np.linalg.norm(E, 2))))
        assert worst <= 1e-12


class TestCubicRootFind:
    """cubic1d's exact flow solves F(x) = F(x0) + t on the interval between
    steady states that holds x0, F the monotone antiderivative of 1/f, with
    `_bracketed_root` in s = log|x - r|; scipy's brentq on x at the same xtol
    and rtol is the reference."""

    ROOTS = np.array([-1.0, 0.0, 3.0])
    RESIDUES = np.array([1.0 / 4.0, -1.0 / 3.0, 1.0 / 12.0])

    def F(self, x):
        return float(np.dot(self.RESIDUES, np.log(np.abs(x - self.ROOTS))))

    @pytest.mark.parametrize("interval, starts, times", [
        ((-np.inf, -1.0), (-3.0, -1.001), (-0.05, 0.01, -2.0)),
        ((-1.0, 0.0), (-0.999, -0.001), (0.1, 1.0, 5.0, -0.3)),
        ((0.0, 3.0), (0.001, 2.999), (0.1, 1.0, 5.0, -0.05)),
        ((3.0, np.inf), (3.001, 6.0), (0.005, -0.1, -3.0)),
    ])
    def test_flow_matches_brentq_within_its_tolerance(self, interval, starts, times):
        # each solver stops within xtol + rtol |x| of a sign change of the
        # rounded F - target; beyond that, the sign is rounding noise within
        # 4 eps (|F terms| + |target|) / |F'(x)| of the root, F' = 1/f. The
        # measured gap is at most 0.3 of the sum.
        flow = make_system("cubic1d").field.exact_flow
        eps = np.finfo(float).eps
        flowed = 0
        for x0 in np.random.default_rng(5).uniform(*starts, 200):
            for t in times:
                try:
                    got = flow(np.array([[x0]]), t)[0, 0]
                except DivergenceError:  # blown up before t on an unbounded side
                    continue
                flowed += 1
                target = self.F(x0) + t
                gap = 1e-13 * (1.0 + abs(x0))
                lo = interval[0] + gap if np.isfinite(interval[0]) else got - 1.0
                hi = interval[1] - gap if np.isfinite(interval[1]) else got + 1.0
                if (self.F(lo) - target) * (self.F(hi) - target) > 0:
                    # the root lies within gap of a steady state, past the
                    # reference's bracket: backward onto 3 or -1 at t = -3, -2
                    assert min(abs(got - e) for e in interval if np.isfinite(e)) <= gap
                    continue
                want = brentq(lambda x: self.F(x) - target, lo, hi, xtol=1e-15, rtol=8.9e-16)
                noise = 4 * eps * (np.sum(np.abs(self.RESIDUES * np.log(np.abs(want - self.ROOTS))))
                                   + abs(target)) * abs(np.prod(want - self.ROOTS))
                assert abs(got - want) <= 2 * (1e-15 + 8.9e-16 * abs(want)) + noise
        assert flowed >= 400

    def test_a_start_on_a_root_returns_itself(self):
        flow = make_system("cubic1d").field.exact_flow
        for t in (0.3, -0.3, 5.0):
            assert flow(self.ROOTS[:, None], t).tobytes() == self.ROOTS[:, None].tobytes()
        # a bracket end where f is exactly 0 is returned as it is
        assert _bracketed_root(lambda x: x - 0.75, 0.75, 2.0, 1e-15, 8.9e-16) == 0.75
        assert _bracketed_root(lambda x: x - 2.0, 0.75, 2.0, 1e-15, 8.9e-16) == 2.0

    def test_bracket_without_a_sign_change_is_refused(self):
        with pytest.raises(ValueError, match="different signs"):
            _bracketed_root(lambda x: x - 3.0, 0.75, 2.0, 1e-15, 8.9e-16)

    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0])
    def test_starts_near_the_stable_state_match_dp45(self, t):
        # a bracket in x stopped 1e-13 (1 + |x0|) short of the stable state 0,
        # so these flows raised an untyped ValueError once x(t) passed it.
        # dp45 at rel_tol 1e-12 with pure relative control agrees to 1.2e-11
        # relative; the flow is within 1.2e-14 of a 50-digit mpmath root.
        fld = make_system("cubic1d").field
        starts = [s * 10.0**-k for k in range(14, 1, -1) for s in (1.0, -1.0)] + [-0.5, 2.9]
        x0 = np.array(starts)[:, None]
        got = fld.exact_flow(x0, t)
        ref = dp45(fld.rhs, x0, t, rel_tol=1e-12, abs_tol=1e-300)
        assert np.all(np.isfinite(got)) and np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref))

    def test_a_flow_past_the_least_subnormal_returns_the_steady_state(self):
        flow = make_system("cubic1d").field.exact_flow
        assert flow(np.array([[0.5], [-0.5]]), 300.0).tolist() == [[0.0], [0.0]]
        assert flow(np.array([[3.5]]), -100.0).tolist() == [[3.0]]

    @pytest.mark.parametrize("x0, t", [(4.0, 0.1), (4.0, 10.0), (-2.0, 0.1), (-2.0, 10.0)])
    def test_blow_up_side_raises_divergence(self, x0, t):
        with pytest.raises(DivergenceError, match="escaped to infinity"):
            make_system("cubic1d").field.exact_flow(np.array([[x0]]), t)
