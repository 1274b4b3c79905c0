import csv
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from koopext import phase
from koopext.core import (
    MAX_STEPS,
    ConfigurationError,
    DivergenceError,
    DomainError,
    EvalGrid,
    SingularInputError,
    principal_arg,
    singular_mask,
)
from koopext.dynamics import FlowMap, VectorField, make_system
from koopext.experiments import _distance_to_samples
from koopext.phase import (
    PhaseField,
    _laplace_plan,
    _sin_sum,
    isofield,
    laplace_average_batch,
    limit_cycle_period,
    map_trajectory_outside,
    polar_eigenfunctions,
    transform_Ti,
    transform_Ti_inv,
    transform_To,
    write_phase_csv,
)


def scalar_linear_field(lam):
    return VectorField(
        1,
        rhs=lambda x: lam * x,
        exact_flow=lambda pts, t: pts * math.exp(lam * t),
    )


class TestLaplaceAverage:
    def test_linear_observable_is_exact(self):
        # x' = lam x with f(x) = x: the integrand is constant, so the average
        # equals x for every horizon
        fld = scalar_linear_field(-0.7)
        out = laplace_average_batch(
            fld, lambda p: p[:, 0].astype(complex), -0.7, np.array([[1.3]]), T=5.0, step=0.01
        )
        assert out[0] == pytest.approx(1.3, abs=1e-10)

    def test_zero_at_steady_state(self):
        sys_ = make_system("polarLC", alpha=0.0)
        out = laplace_average_batch(
            sys_.field,
            lambda p: np.sin(p[:, 0] + p[:, 1]).astype(complex),
            complex(0, 1.0),
            np.array([[0.0, 0.0]]),
            T=10.0,
            step=0.01,
        )
        assert abs(out[0]) < 1e-12

    def test_divergence_guard(self):
        fld = scalar_linear_field(1.0)
        # the integrand x e^{t} = e^{2t} passes the 1e8 guard at t = ln(1e8)/2 = 9.21
        cause = r"t = 9\.22 \(step 922 of 3000\) in 1 of 1 rows"
        with pytest.raises(DivergenceError, match=cause):
            laplace_average_batch(
                fld, lambda p: p[:, 0].astype(complex), -1.0, np.array([[1.0]]),
                T=30.0, step=0.01,
            )

    def test_divergence_guard_counts_the_rows_that_crossed(self):
        fld = scalar_linear_field(1.0)
        with pytest.raises(DivergenceError, match=r"in 2 of 3 rows"):
            laplace_average_batch(
                fld, lambda p: p[:, 0].astype(complex), -1.0, np.array([[1.0], [0.0], [-1.0]]),
                T=30.0, step=0.01,
            )

    def test_batch_rows_are_independent(self):
        # stacking two batches gives bitwise the values of two separate calls,
        # which is what lets vdp_phase average a grid and its image at once
        sys_ = make_system("vanderpol", mu=0.3)
        rng = np.random.default_rng(3)
        first, second = rng.uniform(-2.5, 2.5, (37, 2)), rng.uniform(-2.5, 2.5, (19, 2))

        def average(points):
            obs = lambda p: np.sin(p[:, 0] + p[:, 1])  # noqa: E731
            return laplace_average_batch(sys_.field, obs, complex(0.0, 0.99), points, 6.0, 0.05)

        stacked = average(np.vstack([first, second]))
        apart = np.concatenate([average(first), average(second)])
        assert stacked.tobytes() == apart.tobytes()

    def test_each_step_makes_six_rhs_calls(self):
        # the 7th stage of a step is the next step's 1st: 6 calls per step and
        # one at t = 0, where seven independent stages took 7 per step
        fld = make_system("vanderpol", mu=0.3).field
        calls = []

        def counting_rhs(p):
            calls.append(len(p))
            return fld.rhs(p)

        obs = lambda p: np.sin(p[:, 0] + p[:, 1])  # noqa: E731
        pts = np.random.default_rng(5).uniform(-2.0, 2.0, (11, 2))
        got = laplace_average_batch(
            VectorField(2, counting_rhs), obs, complex(0.0, 1.0), pts, 3.0, 0.1
        )
        assert calls == [11] * (6 * 30 + 1)
        want = laplace_average_batch(fld, obs, complex(0.0, 1.0), pts, 3.0, 0.1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("T", [1.0, np.float64(1.0)], ids=["float", "float64"])
    def test_horizon_under_half_a_step_is_refused(self, T):
        # round(T / step) == 0 steps once divided by zero or averaged nothing
        fld = scalar_linear_field(-0.5)
        with pytest.raises(ConfigurationError, match=r"T = 1 .*step = 13"):
            laplace_average_batch(
                fld, lambda p: p[:, 0].astype(complex), -0.5, np.array([[1.0]]), T, 13.0
            )

    @pytest.mark.parametrize("kwargs, count", [({"T": 1e300}, "3.175e\\+301"),
                                               ({"step": 1e-300}, "3.15e\\+302"),
                                               ({"T": 1e300, "step": 1e-300}, "inf"),
                                               ({"T": 63.0, "step": 6.3e-5 * 0.999},
                                                "1.001e\\+06")])
    def test_step_count_over_the_cap_is_refused(self, kwargs, count):
        # the first two spun for ever, and the third raised OverflowError on round(inf)
        with pytest.raises(ConfigurationError,
                           match=f"takes {count} steps of step = .* over the 1000000-step cap"):
            _laplace_plan(6.3, **kwargs)
        # 10 periods of 100,000 steps: the cap itself is allowed
        assert _laplace_plan(6.3, 63.0, 6.3e-5)[1:] == (63.0, 6.3e-5)

    @staticmethod
    def average_over(T, step):
        fld = scalar_linear_field(-0.5)
        return laplace_average_batch(
            fld, lambda p: p[:, 0].astype(complex), -0.5, np.array([[1.0]]), T, step
        )

    def test_batch_step_count_that_overflows_is_refused(self):
        # T / step overflowed to inf, and round(inf) raised a bare OverflowError
        with pytest.raises(ConfigurationError,
                           match="horizon T = 1 takes inf steps of step = 9.99989e-321, "
                                 "over the 1000000-step cap"):
            self.average_over(1.0, 1e-320)

    @pytest.mark.parametrize("T, step, count", [(1.0, 1e-300, "1e\\+300"),
                                                (1.0, 1.0 / (MAX_STEPS + 1), "1e\\+06")])
    def test_batch_step_count_over_the_cap_is_refused(self, T, step, count):
        # a finite count over the cap spun for as many steps
        with pytest.raises(ConfigurationError, match=f"horizon T = 1 takes {count} steps"):
            self.average_over(T, step)

    @pytest.mark.parametrize("T, step", [(math.nan, 0.1), (1.0, math.nan), (math.inf, 0.1),
                                         (math.inf, math.inf), (0.0, 0.1), (1.0, -0.1)])
    def test_batch_horizon_or_step_not_finite_and_positive_is_refused(self, T, step):
        # a NaN passed the old `T <= 0` test and raised ValueError on round(nan)
        with pytest.raises(ConfigurationError, match="must be finite and positive"):
            self.average_over(T, step)

    @pytest.mark.parametrize("kwargs", [{"T": -5.0}, {"T": 0.0}, {"step": 0.0},
                                        {"step": -0.1}, {"T": math.nan}])
    def test_non_positive_horizon_or_step_is_refused(self, kwargs):
        # it used to be rounded up to one period, or passed on to the average
        (name, value), = kwargs.items()
        with pytest.raises(ConfigurationError, match=f"{name} must be positive, got {value}"):
            _laplace_plan(6.3, **kwargs)


def _pre_change_laplace_average_batch(fld, observable, lam, points, T, step):
    # laplace_average_batch before its state went column-major: C-ordered
    # rows, the pre-change step, and no divergence guard
    from test_dynamics import _pre_change_dp_step

    n_steps = int(round(T / step))
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h = T / n_steps
    lam = complex(lam)
    y = pts.copy()
    g_prev = np.asarray(observable(y), dtype=complex)
    acc = np.zeros(pts.shape[0], dtype=complex)
    t = 0.0
    k0 = fld.rhs(y)
    for _ in range(n_steps):
        y, k = _pre_change_dp_step(fld.rhs, y, h, k0)
        k0 = k[6]
        t += h
        g = np.asarray(observable(y), dtype=complex) * np.exp(-lam * t)
        acc += 0.5 * h * (g_prev + g)
        g_prev = g
    return acc / T


class TestColumnMajorAverage:
    def test_matches_the_pre_change_average_on_a_vanderpol_band(self):
        from test_dynamics import _pre_change_vanderpol_rhs

        sys_ = make_system("vanderpol", mu=0.3)
        _, period, orbit = limit_cycle_period(sys_.field, np.array([2.0, 0.0]))
        grid = EvalGrid((-2.8, -2.8), (2.8, 2.8), 0.2)
        band = grid.points[_distance_to_samples(grid.points, orbit(np.linspace(0, period, 400)).T) <= 0.3]
        assert 50 < len(band) < 500
        lam, T, step = _laplace_plan(period, 3 * period, 0.05)
        got = laplace_average_batch(sys_.field, _sin_sum, lam, band, T, step)
        old_field = VectorField(2, _pre_change_vanderpol_rhs(0.3))
        want = _pre_change_laplace_average_batch(old_field, _sin_sum, lam, band, T, step)
        assert got.tobytes() == want.tobytes()


def _pre_change_limit_cycle_period(fld, x0):
    # limit_cycle_period before the relaxation kept its last state alone:
    # both solves through the pre-change dense driver
    from test_dynamics import _pre_change_dp45_dense

    relax, _ = _pre_change_dp45_dense(fld.rhs, x0, 60.0, 1e-12, 1e-12)
    p0 = relax.y[-1]
    flow = fld.rhs(p0).tolist()
    speed = math.hypot(*flow)
    normal = [v / speed for v in flow]
    orbit, period = _pre_change_dp45_dense(fld.rhs, p0, phase._PERIOD_HORIZON, 1e-12, 1e-12,
                                           section=(p0, normal))
    return 2.0 * math.pi / period, period, orbit


class TestLimitCyclePeriod:
    @pytest.mark.parametrize("mu, omega, x0", [(1.0, 1.0, 1.5), (1.0, 2.0, 1.5),
                                                (0.5, 3.0, 0.2)])
    def test_polar_period_is_two_pi_over_omega(self, mu, omega, x0):
        # with alpha = 0 the cycle r = sqrt(mu) turns at the rate omega
        sys_ = make_system("polarLC", mu=mu, omega=omega, alpha=0.0)
        got_omega, period, _ = limit_cycle_period(sys_.field, np.array([x0, 0.0]))
        assert period == pytest.approx(2 * math.pi / omega, rel=1e-9)
        assert got_omega == pytest.approx(omega, rel=1e-9)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 2.0])
    def test_vanderpol_matches_the_pre_change_solves(self, mu):
        fld = make_system("vanderpol", mu=mu).field
        omega, period, orbit = limit_cycle_period(fld, np.array([2.0, 0.0]))
        want_omega, want_period, want_orbit = _pre_change_limit_cycle_period(
            fld, np.array([2.0, 0.0]))
        assert (omega, period) == (want_omega, want_period)
        s = np.linspace(0, period, 400)
        assert orbit(s).tobytes() == want_orbit(s).tobytes()

    def test_vanderpol_period_closes_the_loop(self):
        # independent check: integrating exactly one measured period returns
        # to the starting point on the cycle, at reference tolerance
        sys_ = make_system("vanderpol")
        omega, period, _ = limit_cycle_period(sys_.field, np.array([2.0, 0.0]))

        def rhs1(t, u):
            return sys_.field.rhs(u[None, :])[0]

        p0 = solve_ivp(rhs1, (0, 80.0), [2.0, 0.0], rtol=1e-12, atol=1e-12).y[:, -1]
        p1 = solve_ivp(rhs1, (0, period), p0, rtol=1e-12, atol=1e-12).y[:, -1]
        assert np.linalg.norm(p1 - p0) < 1e-6 * max(1.0, np.linalg.norm(p0))

    def test_orbit_closes_after_one_period(self):
        sys_ = make_system("vanderpol")
        _, period, orbit = limit_cycle_period(sys_.field, np.array([2.0, 0.0]))
        start, end = orbit(0.0), orbit(period)
        assert orbit(np.linspace(0, period, 400)).shape == (2, 400)
        assert np.linalg.norm(end - start) < 1e-8 * np.linalg.norm(start)

    def test_no_cycle_detected_from_steady_flow(self):
        sys_ = make_system("linear2d")
        with pytest.raises(ConfigurationError, match="steady state"):
            limit_cycle_period(sys_.field, np.array([1.0, 1.0]))

    def test_vanderpol_period_stops_at_the_first_return(self):
        fld = make_system("vanderpol", mu=0.3).field
        calls = []

        def counting_rhs(p):
            calls.append(p.shape)
            return fld.rhs(p)

        omega, period, _ = limit_cycle_period(VectorField(2, counting_rhs), np.array([2.0, 0.0]))
        # to the last bit, on every BLAS kernel: no step of the solve calls the BLAS
        assert period == 6.318443203451206
        assert omega == 2.0 * math.pi / period
        # integrating on to the horizon would take over 60,000 calls; every
        # call is on one state, with no (1, d) batch around it
        assert len(calls) == 26_649
        assert set(calls) == {(2,)}

    def test_no_return_within_the_horizon(self, monkeypatch):
        monkeypatch.setattr(phase, "_PERIOD_HORIZON", 1.0)
        sys_ = make_system("vanderpol", mu=0.3)
        with pytest.raises(DivergenceError, match="no return"):
            limit_cycle_period(sys_.field, np.array([2.0, 0.0]))


class TestCycleBand:
    """The grid band around the Van der Pol cycle that vdp_phase averages on."""

    @staticmethod
    def broadcast_distance(points, samples):
        # the (n, m, 2) construction _distance_to_samples streams
        return np.min(np.linalg.norm(points[:, None, :] - samples[None, :, :], axis=2), axis=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_streamed_distance_matches_the_broadcast_norm_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        grid = EvalGrid((-2.8, -2.8), (2.8, 2.8), 0.1)
        scattered = rng.normal(scale=2.0, size=(500, 2))
        samples = rng.normal(scale=2.0, size=(97, 2))
        # points that lie on a sample, one of them a signed zero
        samples[0] = -0.0
        on_sample = np.vstack([samples[:10], [[0.0, -0.0]]])
        # exact ties: dyadic points 2 apart, each with samples at offsets
        # (3, 4), (-5, 0) and (0, 5) eighths, all at squared distance 25/64
        tied = 2.0 * rng.permutation(np.mgrid[-3:3, -3:3].reshape(2, -1).T)[:8] + 0.125
        offsets = np.array([[3.0, 4.0], [-5.0, 0.0], [0.0, 5.0]]) / 8.0
        tie_samples = (tied[:, None, :] + offsets).reshape(-1, 2)
        cases = [
            (grid.points, samples),
            (np.vstack([on_sample, scattered]), samples),
            (tied, tie_samples),
            (grid.points, np.vstack([tie_samples, samples])),
        ]
        for points, at in cases:
            got = _distance_to_samples(points, at)
            assert got.tobytes() == self.broadcast_distance(points, at).tobytes()
        assert np.all(_distance_to_samples(on_sample, samples) == 0.0)
        assert np.all(_distance_to_samples(tied, tie_samples) == 5.0 / 8.0)

    @pytest.mark.parametrize("mu", [0.3, 1.0, 2.0])
    def test_band_from_the_orbit_keeps_the_points_of_a_second_relaxation(self, mu):
        sys_ = make_system("vanderpol", mu=mu)
        grid = EvalGrid((-2.8, -2.8), (2.8, 2.8), 0.1)  # the vdp_phase default
        _, period, orbit = limit_cycle_period(sys_.field, np.array([2.0, 0.0]))
        near = _distance_to_samples(grid.points, orbit(np.linspace(0, period, 400)).T)
        # the oracle: relax x0 a second time at 1e-10, then integrate one
        # period, as vdp_phase did before it sampled the orbit
        rhs1 = lambda t, u: sys_.field.rhs(u)  # noqa: E731
        p0 = solve_ivp(rhs1, (0, 60.0), [2.0, 0.0], rtol=1e-10, atol=1e-10).y[:, -1]
        cyc = solve_ivp(
            rhs1, (0, period), p0, rtol=1e-10, atol=1e-10,
            t_eval=np.linspace(0, period, 400),
        ).y.T
        old = self.broadcast_distance(grid.points, cyc)
        for band in (0.3, 0.55):
            assert np.count_nonzero(old <= band) > 100
            assert np.array_equal(near <= band, old <= band)


class TestPolarEigenfunctions:
    def test_isostable_values(self):
        phi_lc, phi_ss = polar_eigenfunctions(1.0, 0.0, 1.0)
        planar_lc = make_system("polarLC", alpha=0.0).analytic_eigenfunctions[0]
        on_cycle = [[math.cos(0.3), math.sin(0.3)]]
        assert abs(planar_lc.eval(on_cycle)[0]) == pytest.approx(0.0)
        # C (mu/r^2 - 1) at r = 0.5 is 3
        assert abs(phi_lc.interior(np.array([0.5]), np.array([0.0]))[0]) == pytest.approx(3.0)
        # C r / sqrt(mu - r^2) at r = 0.6 is 0.75
        assert abs(phi_ss(np.array([0.6]), np.array([0.0]))[0]) == pytest.approx(0.75)

    @pytest.mark.parametrize("mu, C", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_non_positive_mu_or_C_is_refused(self, mu, C):
        with pytest.raises(ConfigurationError, match="need mu > 0, C > 0"):
            polar_eigenfunctions(mu, 0.5, C)

    def test_branch_domains_enforced(self):
        phi_lc, phi_ss = polar_eigenfunctions(1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            phi_lc.interior(np.array([1.2]), np.array([0.0]))
        with pytest.raises(DomainError):
            phi_lc.exterior(np.array([0.8]), np.array([0.0]))
        with pytest.raises(DomainError):
            phi_ss(np.array([1.2]), np.array([0.0]))

    def test_singular_tags(self):
        _, phi_ss = polar_eigenfunctions(1.0, 0.5, 1.0)
        planar_lc = make_system("polarLC", alpha=0.5).analytic_eigenfunctions[0]
        assert singular_mask(planar_lc.eval([[0.0, 0.0]]))[0]
        assert singular_mask(phi_ss(np.array([1.0]), np.array([0.0])))[0]

    def test_branch_monotonicity_alpha_zero(self):
        phi_lc, _ = polar_eigenfunctions(1.0, 0.0, 1.0)
        r_in = np.linspace(0.05, 0.95, 50)
        vals_in = np.abs(phi_lc.interior(r_in, np.zeros_like(r_in)))
        assert np.all(np.diff(vals_in) < 0)  # strictly decreasing inside
        r_out = np.linspace(1.05, 12.0, 50)
        vals_out = np.abs(phi_lc.exterior(r_out, np.zeros_like(r_out)))
        assert np.all(np.diff(vals_out) > 0)  # strictly increasing outside
        assert np.all(vals_out < 1.0)  # supremum C = 1


class TestPolarClosedFormsAgree:
    """The planar evaluators of make_system("polarLC") and the (r, theta)
    evaluators of polar_eigenfunctions are one formula: bit for bit equal."""

    PARAMS = [(1.0, 1.0, 1.0, 1.0), (0.7, 1.3, -0.4, 2.5), (2.0, 0.5, 3.0, 0.3)]

    @staticmethod
    def planar_points(mu, n=4000, seed=0):
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.0, 2.5 * math.sqrt(mu), n)
        th = rng.uniform(-math.pi, math.pi, n)
        xy = np.column_stack([r * np.cos(th), r * np.sin(th)])
        xy[:3] = [[0.0, 0.0], [math.sqrt(mu), 0.0], [-1e-3, -0.0]]
        return xy

    @pytest.mark.parametrize("mu,omega,alpha,C", PARAMS)
    def test_phi_lc_branches(self, mu, omega, alpha, C):
        xy = self.planar_points(mu)
        r, th = np.hypot(xy[:, 0], xy[:, 1]), np.arctan2(xy[:, 1], xy[:, 0])
        inside, outside = (r > 0) & (r < math.sqrt(mu)), r > math.sqrt(mu)
        sys_ = make_system("polarLC", mu=mu, omega=omega, alpha=alpha, C=C)
        phi_lc, _ = polar_eigenfunctions(mu, alpha, C)
        planar = sys_.analytic_eigenfunctions[0].eval(xy)
        assert planar[inside].tobytes() == phi_lc.interior(r[inside], th[inside]).tobytes()
        assert planar[outside].tobytes() == phi_lc.exterior(r[outside], th[outside]).tobytes()
        assert inside.sum() > 1000 and outside.sum() > 1000
        # singular at the origin only; zero on the cycle itself
        assert singular_mask(planar)[0] and not singular_mask(planar)[1:].any()
        assert abs(planar[1]) < 1e-14

    @pytest.mark.parametrize("mu,omega,alpha,C", PARAMS)
    def test_phi_ss_inside_the_cycle(self, mu, omega, alpha, C):
        xy = self.planar_points(mu, seed=1)
        r, th = np.hypot(xy[:, 0], xy[:, 1]), np.arctan2(xy[:, 1], xy[:, 0])
        inside = r < math.sqrt(mu)
        sys_ = make_system("polarLC", mu=mu, omega=omega, alpha=alpha, C=C)
        _, phi_ss = polar_eigenfunctions(mu, alpha, C)
        planar = sys_.analytic_eigenfunctions[1].eval(xy[inside])
        assert planar.tobytes() == phi_ss(r[inside], th[inside]).tobytes()
        assert planar[0] == 0 and inside.sum() > 1000


class TestTransformTi:
    def test_round_trip_identity(self):
        v = 0.3 * np.exp(0.7j)
        out = transform_Ti(transform_Ti_inv(v, 1.0, 1.0, 1.0), 1.0, 1.0, 1.0)
        assert out == pytest.approx(v, abs=1e-12)

    def test_alpha_zero_closed_form(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(0.1, 3.0, 40) * np.exp(1j * rng.uniform(-3, 3, 40))
        out = transform_Ti(z, 1.0, 0.0, 1.0)
        expected = np.abs(z) ** -0.5 * np.exp(1j * np.asarray(principal_arg(z)))
        assert out == pytest.approx(expected, rel=1e-12)

    def test_modulus_depends_only_on_modulus(self):
        rng = np.random.default_rng(1)
        args = rng.uniform(-math.pi, math.pi, 100)
        z = 0.77 * np.exp(1j * args)
        out = np.abs(transform_Ti(z, 2.0, 1.3, 1.5))
        assert np.max(out) - np.min(out) < 1e-13

    def test_zero_rejected(self):
        with pytest.raises(SingularInputError):
            transform_Ti(0j, 1.0, 1.0, 1.0)
        with pytest.raises(SingularInputError):
            transform_Ti_inv(0j, 1.0, 1.0, 1.0)


class TestTransformTo:
    def test_hand_derived_point(self):
        # interior isostable at r = 0.5 is 3; pushed outside: 3/4; the exterior
        # radius solving 1 - 1/r^2 = 3/4 is exactly 2
        r_out, th_out = transform_To(0.5, 0.0, 1.0, 0.0, 1.0)
        assert r_out == pytest.approx(2.0, abs=1e-10)
        assert th_out == pytest.approx(0.0, abs=1e-10)

    def test_boundary_continuity(self):
        for eps in (1e-4, 1e-6, 1e-8):
            r_out, _ = transform_To(1.0 - eps, 0.2, 1.0, 0.0, 1.0)
            assert r_out > 1.0
            assert r_out - 1.0 < 10 * eps

    def test_isochron_preserved_with_twist(self):
        phi_lc, _ = polar_eigenfunctions(1.0, 1.0, 1.0)
        rng = np.random.default_rng(7)
        r = rng.uniform(0.05, 0.95, 50)
        th = rng.uniform(0.0, 2 * math.pi, 50)
        r2, th2 = transform_To(r, th, 1.0, 1.0, 1.0)
        a_in = np.asarray(principal_arg(phi_lc.interior(r, th)))
        a_out = np.asarray(principal_arg(phi_lc.exterior(r2, th2)))
        diff = np.angle(np.exp(1j * (a_in - a_out)))
        assert np.max(np.abs(diff)) < 1e-10

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            transform_To(1.5, 0.0, 1.0, 0.0, 1.0)


class TestTrajectoryMapping:
    def trajectory(self):
        # a genuine interior spiral of the polar system
        sys_ = make_system("polarLC", mu=1.0, omega=1.0, alpha=1.0, C=1.0)
        fmap = FlowMap(sys_.field, 0.05, method="exact")
        p = np.array([0.15, 0.0])
        pts = [p]
        for _ in range(80):
            p = fmap(p)
            pts.append(p)
        xy = np.asarray(pts)
        r = np.hypot(xy[:, 0], xy[:, 1])
        th = np.mod(np.arctan2(xy[:, 1], xy[:, 0]), 2 * math.pi)
        return np.column_stack([r, th])

    def test_interior_trajectory_maps_to_continuous_exterior_curve(self):
        traj = self.trajectory()
        out = map_trajectory_outside(traj, 1.0, 1.0, 1.0)
        assert not np.any(np.isnan(out))
        xy = np.column_stack([out[:, 0] * np.cos(out[:, 1]), out[:, 0] * np.sin(out[:, 1])])
        steps = np.linalg.norm(np.diff(xy, axis=0), axis=1)
        med = np.median(steps)
        assert np.max(steps) < 10 * med

    def test_composition_equals_transform_To(self):
        traj = self.trajectory()
        out = map_trajectory_outside(traj, 1.0, 1.0, 1.0)
        r2, th2 = transform_To(traj[:, 0], traj[:, 1], 1.0, 1.0, 1.0)
        assert out[:, 0] == pytest.approx(r2, abs=1e-10)
        diff = np.angle(np.exp(1j * (out[:, 1] - th2)))
        assert np.max(np.abs(diff)) < 1e-10

    def test_steady_state_rejected(self):
        out = map_trajectory_outside(np.array([[0.0, 0.3]]), 1.0, 1.0, 1.0)
        assert np.all(np.isnan(out))


class TestIsofield:
    def test_polar_analytic_isochrons_are_radial_lines(self):
        sys_ = make_system("polarLC", mu=1.0, omega=1.0, alpha=0.0, C=1.0)
        grid = EvalGrid((-1.8, -1.8), (1.8, 1.8), 0.2)
        field = isofield(sys_, "analytic", grid)
        # the argument is undefined where the field vanishes (on the cycle)
        keep = ~singular_mask(field.values) & (np.abs(field.values) > 1e-12)
        theta = np.arctan2(grid.points[keep, 1], grid.points[keep, 0])
        diff = np.angle(np.exp(1j * (np.asarray(principal_arg(field.values[keep])) - theta)))
        assert np.max(np.abs(diff)) < 1e-10

    def test_modulus_vanishes_on_cycle(self):
        sys_ = make_system("polarLC", mu=1.0, omega=1.0, alpha=0.0, C=1.0)
        grid = EvalGrid((-1.5, -1.5), (1.5, 1.5), 0.05)
        field = isofield(sys_, "analytic", grid)
        r = np.hypot(grid.points[:, 0], grid.points[:, 1])
        near_cycle = np.abs(r - 1.0) < 0.025
        assert np.nanmin(np.abs(field.values[near_cycle])) < 0.11

    def test_vanderpol_laplace_field_eigen_relation(self):
        # the vdp_phase recipe: a band around the cycle's orbit, the one plan
        sys_ = make_system("vanderpol")
        grid = EvalGrid((-2.6, -2.6), (2.6, 2.6), 0.2)
        _, period, orbit = limit_cycle_period(sys_.field, np.array([2.0, 0.0]))
        near = _distance_to_samples(grid.points, orbit(np.linspace(0, period, 300)).T)
        band = grid.points[near <= 0.5]
        assert len(band) > 100
        lam, T, step = _laplace_plan(period)
        dt = 0.6
        fmap = FlowMap(sys_.field, dt, method="rk45", rel_tol=1e-10, abs_tol=1e-12)
        averaged = laplace_average_batch(
            sys_.field, _sin_sum, lam, np.vstack([band, fmap(band)]), T, step
        )
        vals, flowed = averaged[: len(band)], averaged[len(band):]
        resid = np.abs(flowed - np.exp(lam * dt) * vals)
        assert np.max(resid) <= 5e-2 * np.max(np.abs(vals))

    def test_laplace_field_averages_every_grid_point(self):
        sys_ = make_system("vanderpol")
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.5)
        _, period, _ = limit_cycle_period(sys_.field, np.array([2.0, 0.0]))
        field = isofield(sys_, "laplace_average", grid, period)
        lam, T, step = _laplace_plan(period)
        want = laplace_average_batch(sys_.field, _sin_sum, lam, grid.points, T, step)
        assert field.eigenvalue == lam
        assert field.values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("period", [None, 0.0, -1.0])
    def test_laplace_average_needs_the_cycle_period(self, period):
        sys_ = make_system("vanderpol")
        grid = EvalGrid((-0.5, -0.5), (0.5, 0.5), 0.5)
        with pytest.raises(ConfigurationError, match="period"):
            isofield(sys_, "laplace_average", grid, period)

    def test_phase_csv(self, tmp_path):
        sys_ = make_system("polarLC", alpha=0.0)
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.5)
        field = isofield(sys_, "analytic", grid)
        path = tmp_path / "phase.csv"
        write_phase_csv(path, field)
        lines = path.read_text().splitlines()
        assert lines[0] == "x1,x2,abs,arg,singular"
        assert len(lines) == 1 + len(grid)
        # the origin row is singular-tagged
        origin_row = [ln for ln in lines[1:] if ln.startswith("1,1,") or ",1" == ln[-2:]]
        assert any(ln.endswith(",1") for ln in lines[1:])


class TestSaddleTransversality:
    def test_eigenfunction_gradients_cross_the_manifolds(self):
        sys_ = make_system("saddle2d")
        theta = math.radians(60.0)
        R = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )

        def embed(x):
            return np.expm1((x @ R.T) / math.pi)

        ts = np.linspace(-1.2, 1.2, 15)
        for eig_idx, axis in ((0, 1), (1, 0)):
            eig = sys_.analytic_eigenfunctions[eig_idx]
            pts = np.zeros((len(ts), 2))
            pts[:, axis] = ts
            z = embed(pts)
            eps = 1e-6
            pp, pm = pts.copy(), pts.copy()
            pp[:, axis] += eps
            pm[:, axis] -= eps
            tang = (embed(pp) - embed(pm)) / (2 * eps)
            tang /= np.linalg.norm(tang, axis=1, keepdims=True)
            for zz, tg in zip(z, tang):
                grad = np.zeros(2)
                for j in range(2):
                    h = 1e-6 * (1 + abs(zz[j]))
                    zp, zm = zz.copy(), zz.copy()
                    zp[j] += h
                    zm[j] -= h
                    grad[j] = (
                        eig.eval(zp[None, :])[0].real - eig.eval(zm[None, :])[0].real
                    ) / (2 * h)
                grad /= np.linalg.norm(grad)
                normal = np.array([-tg[1], tg[0]])
                assert abs(grad @ normal) > 0.5


class TestPhaseCSVBytes:
    """write_phase_csv writes the bytes of its earlier per-row csv.writer
    loop, singular rows included; that loop is kept here as the reference."""

    @staticmethod
    def reference(path, field_):
        grid, vals = field_.grid, field_.values
        sing = singular_mask(vals)
        header = [f"x{k + 1}" for k in range(grid.dim)] + ["abs", "arg", "singular"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for point, v, s in zip(grid.points, vals, sing):
                if s:
                    row = [format(c, ".17g") for c in point] + ["nan", "nan", "1"]
                else:
                    row = [format(c, ".17g") for c in point] + [
                        format(abs(v), ".17g"),
                        format(float(principal_arg(v)), ".17g"),
                        "0",
                    ]
                w.writerow(row)

    def test_bytes_match_the_row_loop(self, tmp_path):
        grid = EvalGrid((-2.0, -2.0), (2.0, 2.0), 0.02)
        rng = np.random.default_rng(5)
        vals = (10.0 ** rng.uniform(-8, 8, len(grid))) * np.exp(
            1j * rng.uniform(-math.pi, math.pi, len(grid)))
        vals[rng.random(len(grid)) < 0.05] = complex(np.nan, np.nan)
        # signed zeros, the branch edge -pi folded onto +pi, a NaN imaginary part
        vals[:6] = [0.0, complex(-0.0, -0.0), complex(-1.0, -0.0), complex(-1.0, 0.0),
                    complex(1.0, np.nan), complex(3.0, -4.0)]
        field_ = PhaseField(grid, vals, 1j)
        write_phase_csv(tmp_path / "new.csv", field_)
        self.reference(tmp_path / "old.csv", field_)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\r\n") == len(grid) + 1 == new.count(b"\n")
        assert b",nan,nan,1\r\n" in new and b",3.1415926535897931,0\r\n" in new
