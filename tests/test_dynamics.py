import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from koopext.core import ConfigurationError, DivergenceError, EvalGrid, FlowedGrid, singular_mask
from koopext.dynamics import (
    FlowMap,
    bistable_transform,
    bistable_transform_inv,
    integration_error_sup,
    koopman_pde_residual,
    make_system,
    read_snapshots,
    sample_snapshots,
    transform_snapshots,
    unstable_manifold_sample,
    write_snapshots,
)

A_DEFAULT = np.array([[-0.9, 0.1], [0.0, -0.8]])

ALL_ANALYTIC_IDS = [
    "cubic1d",
    "quad1d",
    "linear2d",
    "softplus2d",
    "lin5d",
    "polarLC",
    "saddle2d",
    "bistable2d",
]


def comfortable_points(system, eig, n, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = (np.asarray(v) for v in system.valid_box)
    pts = lo + (hi - lo) * rng.random((20 * n, system.dim))
    if eig.mask_fn is not None:
        pts = pts[eig.mask_fn(pts)]
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
    def test_semigroup_property_of_exact_flows(self, sid):
        sys_ = make_system(sid)
        rng = np.random.default_rng(1)
        lo, hi = (np.asarray(v) for v in sys_.valid_box)
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
        sys_ = make_system("quad1d", a=2, b=3)
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
        with pytest.raises(ConfigurationError):
            make_system("lin5d", a=-0.5, b=-1.0)  # b = 2a is degenerate
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
