import math

import numpy as np
import pytest

from koopext import extend
from koopext.core import (
    ConfigurationError,
    EmptySupportError,
    EvalGrid,
    FlowedGrid,
    SINGULAR,
    masked_grid_norm,
    principal_pow,
    singular_mask,
)
from koopext.dictionary import (feature_sup_M, identity_dictionary, rbf_dictionary,
                                 spectral_norm_bound_L)
from koopext.dynamics import FlowMap, integration_error_sup, make_system, sample_snapshots
from koopext.eigensolve import eigentriplets
from koopext.extend import (
    EigenfunctionExpr,
    PowerErrors,
    _base_values,
    _BoundConstants,
    _certified_constants,
    _pow_values,
    certify_on_grid,
    continuous_bound,
    discrete_bound,
    expr_from_analytic,
    expr_from_weights,
    extend_continuous,
    extend_discrete,
    iterative_koopman_eigensolver,
    monomial,
    normalize_to_grid,
    principal_filter,
)
from koopext.regression import KoopmanModel, fit_edmd


@pytest.fixture(scope="module")
def lin5d():
    return make_system("lin5d")


@pytest.fixture(scope="module")
def quad1d():
    return make_system("quad1d")


@pytest.fixture(scope="module")
def linear2d_model():
    sys_ = make_system("linear2d")
    snaps = sample_snapshots(sys_, 400, 0.2, ((-2, -2), (2, 2)), seed=17)
    return sys_, fit_edmd(snaps, identity_dictionary(2))


class TestMonomial:
    def test_lin5d_square_identity(self, lin5d):
        # phi1^2 equals the quadratic observable eigenfunction pointwise
        phi1 = expr_from_analytic(lin5d.analytic_eigenfunctions[0])
        phi2 = lin5d.analytic_eigenfunctions[1]
        grid = EvalGrid((-1,) * 5, (1,) * 5, 0.5)
        sq = monomial(phi1, 2)
        v_sq = sq.eval(grid.points)
        # phi2 reads the third observable; on lifted states y3 = y1^2, but on
        # the raw 5D grid the identity is between phi1^2 and y1^2 itself
        assert v_sq == pytest.approx(grid.points[:, 0] ** 2 + 0j, abs=1e-12)
        assert sq.eigenvalue == pytest.approx(phi2.eigenvalue, abs=1e-12)

    def test_identity_power(self, quad1d):
        phi = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        same = monomial(phi, 1)
        pts = np.linspace(1.2, 2.8, 17).reshape(-1, 1)
        assert np.array_equal(same.eval(pts), phi.eval(pts))

    def test_quad1d_reciprocal_structure(self, quad1d):
        phi_a = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        phi_b = quad1d.analytic_eigenfunctions[1]
        inv = monomial(phi_a, -1)
        pts = np.linspace(1.1, 4.0, 40).reshape(-1, 1)
        pts = pts[(np.abs(pts[:, 0] - 2) > 0.05) & (np.abs(pts[:, 0] - 3) > 0.05)]
        assert inv.eval(pts) == pytest.approx(phi_b.eval(pts), rel=1e-12)
        assert inv.eigenvalue == pytest.approx(phi_b.eigenvalue)

    def test_multiplicative_eigenvalue_law_for_fitted_factors(self):
        # per-step multipliers combine as lambda1^p lambda2^q via the principal branch
        dic = identity_dictionary(2)
        l1, l2 = 0.93 * np.exp(0.4j), 0.81 * np.exp(-1.1j)
        phi1 = expr_from_weights(dic, np.array([1.0, 0.0]), l1)
        phi2 = expr_from_weights(dic, np.array([0.0, 1.0]), l2)
        for p in (-2, -1, 0, 1, 2, 3):
            for q in (-2, 0, 1, 3):
                expr = monomial(phi1, p, phi2, q)
                expected = principal_pow(l1, p) * principal_pow(l2, q)
                assert expr.eigenvalue == pytest.approx(expected, rel=1e-12)

    def test_generator_eigenvalues_combine_additively(self, lin5d):
        # for continuous-time exponents the multiplicative law lives in the
        # exponential: exp((p l1 + q l4) dt) = exp(l1 dt)^p exp(l4 dt)^q
        phi1 = expr_from_analytic(lin5d.analytic_eigenfunctions[0])
        phi4 = expr_from_analytic(lin5d.analytic_eigenfunctions[3])
        l1, l4 = phi1.eigenvalue, phi4.eigenvalue
        dt = 0.2
        for p in (-2, 1, 3):
            for q in (-1, 0, 2):
                expr = monomial(phi1, p, phi4, q)
                assert expr.eigenvalue == pytest.approx(p * l1 + q * l4, rel=1e-13)
                lhs = expr.step_multiplier(dt)
                rhs = principal_pow(np.exp(l1 * dt), p) * principal_pow(np.exp(l4 * dt), q)
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_mixed_conventions_rejected(self, lin5d):
        fitted = expr_from_weights(identity_dictionary(5), np.eye(5)[0], 0.9)
        analytic = expr_from_analytic(lin5d.analytic_eigenfunctions[0])
        with pytest.raises(ConfigurationError):
            monomial(fitted, 1, analytic, 1)

    def test_singular_tag_not_exception(self, quad1d):
        phi_a = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        inv = monomial(phi_a, -1)
        vals = inv.eval(np.array([[2.0], [2.5]]))  # phi_a(2) = 0
        assert singular_mask(vals)[0]
        assert not singular_mask(vals)[1]

    @pytest.mark.parametrize(
        "m, expected",
        [(0.5, [SINGULAR, math.sqrt(2), 0]), (-0.5, [SINGULAR, 1 / math.sqrt(2), SINGULAR])],
    )
    def test_fractional_power_keeps_singular_tag(self, m, expected):
        out = _pow_values(_base_values(np.array([SINGULAR, 2, 0], dtype=complex)), m)
        want = np.array(expected, dtype=complex)
        assert list(singular_mask(out)) == list(singular_mask(want))
        kept = ~singular_mask(want)
        assert out[kept] == pytest.approx(want[kept], abs=1e-15)

    def test_fractional_monomial_of_a_singular_base_stays_singular(self, quad1d):
        # the reciprocal family is singular where the other one vanishes
        phi = next(e for e in quad1d.analytic_eigenfunctions if singular_mask(e.eval([[2.0]]))[0])
        vals = monomial(expr_from_analytic(phi), 0.5).eval(np.array([[2.0], [2.5]]))
        assert list(singular_mask(vals)) == [True, False]

    def test_log_linearity(self, quad1d):
        phi_a = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        phi_b = expr_from_analytic(quad1d.analytic_eigenfunctions[1])
        pts = np.linspace(1.05, 4.0, 57).reshape(-1, 1)
        pts = pts[(np.abs(pts[:, 0] - 2) > 0.1) & (np.abs(pts[:, 0] - 3) > 0.1)]
        m1, m2 = 3, -2
        combo = monomial(phi_a, m1, phi_b, m2)
        lhs = np.log(np.abs(combo.eval(pts)))
        rhs = m1 * np.log(np.abs(phi_a.eval(pts))) + m2 * np.log(np.abs(phi_b.eval(pts)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def fresh_error(expr: EigenfunctionExpr, flowed: FlowedGrid, p: float):
    """The trajectory error of expr with every factor evaluated afresh on the
    grid points and their images: (error, singular points excluded)."""
    vx, vy = expr.eval(flowed.points), expr.eval(flowed.image)
    norm, excluded = masked_grid_norm(vy - expr.step_multiplier(flowed.dt) * vx)
    return float(norm ** (1.0 / p)), excluded


class TestTrajectoryError:
    def test_exact_eigenpair_zero(self, quad1d):
        grid = EvalGrid((1.05,), (1.9,), 0.01)
        fmap = FlowMap(quad1d.field, 0.1, method="exact")
        phi = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        assert PowerErrors(phi, FlowedGrid.of(fmap, grid))(1)[1] < 1e-10

    def test_power_of_exact_eigenpair_stays_zero(self, quad1d):
        # the residual itself is machine zero; the 1/p root maps tolerance too
        grid = EvalGrid((1.05,), (1.9,), 0.01)
        fmap = FlowMap(quad1d.field, 0.1, method="exact")
        phi = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        errors = PowerErrors(phi, FlowedGrid.of(fmap, grid))
        for p in (2, 4):
            err = errors(p)[1]
            assert err**p < 1e-12

    def test_positive_below_bound_for_euler_flow(self, linear2d_model):
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.05)
        euler = FlowMap(sys_.field, 0.2, method="euler", step=0.001)
        lams, W = np.linalg.eig(model.K.T)
        j = int(np.argmax(lams.real))
        expr = expr_from_weights(model, W[:, j].real, lams[j].real)
        err = PowerErrors(expr, FlowedGrid.of(euler, grid))(1)[1]
        assert err > 0

    def test_singular_points_excluded_and_counted(self, quad1d):
        grid = EvalGrid((1.5,), (2.5,), 0.25)  # hits x = 2.0 exactly
        fmap = FlowMap(quad1d.field, 0.05, method="exact")
        inv = monomial(expr_from_analytic(quad1d.analytic_eigenfunctions[0]), -1)
        _, err, excluded = PowerErrors(inv, FlowedGrid.of(fmap, grid))(1)
        assert excluded >= 1
        assert math.isfinite(err)

    def test_power_errors_match_the_monomial_errors_bit_for_bit(self, quad1d):
        # cached base values, a grid scale and singular points under p < 0
        grid = EvalGrid((1.5,), (2.5,), 0.05)
        flowed = FlowedGrid.of(FlowMap(quad1d.field, 0.05, method="exact"), grid)
        phi = normalize_to_grid(expr_from_analytic(quad1d.analytic_eigenfunctions[0]), grid)
        errors = PowerErrors(phi, flowed)
        for p in (-1, 1, 2, 3):
            expr, err, excluded = errors(p)
            assert expr.factors == monomial(phi, p).factors
            assert (err, excluded) == fresh_error(monomial(phi, p), flowed, p)
            if p < 0:
                assert excluded >= 1

    def test_all_singular_is_empty_support(self, quad1d):
        fmap = FlowMap(quad1d.field, 0.05, method="exact")
        inv = monomial(expr_from_analytic(quad1d.analytic_eigenfunctions[0]), -1)
        # the one point x = 2 (EvalGrid refuses a box of no width, so the
        # flowed grid is built directly)
        bad = np.array([[2.0]])
        with pytest.raises(EmptySupportError):
            PowerErrors(inv, FlowedGrid(bad, fmap(bad), 0.05))(1)


def mode_of(ratio: np.ndarray) -> float:
    lo, hi = np.quantile(ratio, [0.005, 0.995])
    if not (hi - lo > 1e-12 * max(1.0, abs(lo), abs(hi))):
        return float(np.median(ratio))
    hist, edges = np.histogram(ratio, bins=101, range=(lo, hi))
    k = int(np.argmax(hist))
    return float(0.5 * (edges[k] + edges[k + 1]))


def truth_error_report(expr: EigenfunctionExpr, truth, grid: EvalGrid, p: float) -> dict:
    """Scale-invariant distance from a computed eigenfunction to an analytic one.

    Points where either field is singular-tagged or smaller than 1e-8 in
    modulus are excluded; the remaining pointwise ratio truth/expr is
    summarized by its histogram mode (101 bins over the central 99 percent)
    and the error is |truth - c_mode * expr| in the grid norm, to the 1/p.
    """
    pts = grid.points
    a = np.asarray(truth.eval(pts), dtype=complex)
    b = expr.eval(pts)
    bad = singular_mask(a) | singular_mask(b) | (np.abs(a) < 1e-8) | (np.abs(b) < 1e-8)
    if np.all(bad):
        raise EmptySupportError("no grid points survive the exclusion thresholds")
    ratio = a[~bad] / b[~bad]
    if np.max(np.abs(ratio.imag)) > 1e-6 * max(np.max(np.abs(ratio.real)), 1e-30):
        ratio_vals = np.abs(ratio)
    else:
        ratio_vals = ratio.real
    c_mode = mode_of(ratio_vals)
    err = float(np.sqrt(np.mean(np.abs(a[~bad] - c_mode * b[~bad]) ** 2)) ** (1.0 / p))
    return {"error": err, "c_mode": c_mode}


class TestTruthError:
    def test_pure_rescaling(self, quad1d):
        grid = EvalGrid((1.1,), (1.9,), 0.01)
        truth = quad1d.analytic_eigenfunctions[0]
        expr = monomial(expr_from_analytic(truth), 1)
        doubled = EigenfunctionExpr(
            factors=expr.factors, eigenvalue=expr.eigenvalue,
            eigenvalue_kind=expr.eigenvalue_kind, scale=2.0 + 0j,
        )
        rep = truth_error_report(doubled, truth, grid, p=1)
        assert rep["c_mode"] == pytest.approx(0.5, abs=2e-2)
        assert rep["error"] < 1e-9

    def test_small_noise_small_error(self, quad1d):
        grid = EvalGrid((1.1,), (1.9,), 0.01)
        truth = quad1d.analytic_eigenfunctions[0]
        base_vals = truth.eval(grid.points)
        rng = np.random.default_rng(0)
        noisy_vals = base_vals + rng.uniform(-1e-6, 1e-6, size=len(grid))

        class Noisy:
            eigenvalue = truth.eigenvalue

            def eval(self, pts):
                return noisy_vals

        expr = expr_from_analytic(Noisy())
        assert truth_error_report(expr, truth, grid, p=1)["error"] <= 1e-5


class TestBounds:
    def test_cfg_p1_is_plain_residual_norm(self, linear2d_model):
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.1)
        fmap = FlowMap(sys_.field, 0.2, method="exact")
        lam = float(np.max(np.linalg.eigvals(model.K).real))
        cfg = _BoundConstants(model.dict, FlowedGrid.of(fmap, grid), lam)(1)
        PX = grid.points
        PF = fmap(grid.points)
        oracle = np.sqrt(np.mean(np.linalg.norm(PF - lam * PX, axis=1) ** 2))
        assert cfg == pytest.approx(oracle, rel=1e-12)

    def test_identity_map_unit_eigenvalue_zero(self):
        dic = identity_dictionary(2)
        grid = EvalGrid((-1, -1), (1, 1), 0.2)
        cfg = _BoundConstants(dic, FlowedGrid(grid.points, grid.points, 0.0), 1.0)(3)
        assert cfg == 0.0

    def test_cfg_against_straight_loop(self, linear2d_model):
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.2)
        fmap = FlowMap(sys_.field, 0.2, method="exact")
        lam = math.exp(-0.18)
        p = 3
        cfg = _BoundConstants(model.dict, FlowedGrid.of(fmap, grid), lam)(p)
        # independent straight-loop implementation
        total = 0.0
        for x in grid.points:
            fx = fmap(x)
            resid = np.linalg.norm(fx - lam * x)
            geom = sum(
                np.linalg.norm(fx) ** (p - 1 - i) * np.linalg.norm(x) ** i * lam**i
                for i in range(p)
            )
            total += (resid * geom) ** 2
        oracle = math.sqrt(total / len(grid))
        assert cfg == pytest.approx(oracle, rel=1e-12)

    def test_closed_form_values(self):
        assert continuous_bound(1.0, 1.0, 1.0, 0.0, 3) == 0.0
        assert discrete_bound(0.0, 123.0, 4) == 0.0
        # (1.1^2 - 1)^{1/2} with lam M = 1, L = 1, eps_G = 0.1, p = 2
        assert continuous_bound(1.0, 1.0, 1.0, 0.1, 2) == pytest.approx(
            math.sqrt(0.21), rel=1e-12
        )


class TestExtensionLoops:
    def make_flow(self, sys_, grid):
        return FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), grid)

    def eigpair(self, model, which=0):
        lams, W = np.linalg.eig(model.K.T)
        order = np.argsort(-lams.real)
        j = order[which]
        return W[:, j].real, complex(lams[j].real)

    def test_zero_eigenvector_error_caps_at_pmax(self, linear2d_model):
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.25)
        res = extend_discrete(
            self.eigpair(model), model, self.make_flow(sys_, grid), epsilon=0.1,
            delta_w_norm=0.0, p_max=12,
        )
        assert res.max_power == 12
        assert "never exceeded" in res.status

    def test_epsilon_below_p1_bound_gives_empty(self, linear2d_model):
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.25)
        res = extend_discrete(
            self.eigpair(model), model, self.make_flow(sys_, grid), epsilon=1e-12,
            delta_w_norm=1e-3,
        )
        assert len(res) == 0
        assert "p=1" in res.status

    def test_discrete_loop_certifies_the_weights_as_given(self, linear2d_model):
        # delta_w_norm is the distance of w + dw from the eigenvector w, so the
        # loop must measure w + dw itself, not w + dw rescaled to unit norm
        sys_, model = linear2d_model
        exact = self.make_flow(sys_, EvalGrid((-1, -1), (1, 1), 0.05))
        lam, w = math.exp(-0.9 * 0.2), np.array([1.0, -1.0]) / math.sqrt(2)
        dw = np.random.default_rng(42).standard_normal(2)
        dw *= 1e-6 / np.linalg.norm(dw)
        res = extend_discrete((w + dw, lam), model, exact, math.inf, 1e-6, p_max=10)
        given = PowerErrors(expr_from_weights(model, w + dw, lam, unit_norm=False), exact)
        assert [e.trajectory_error for e in res.extensions] == [
            given(p)[1] for p in range(1, 11)
        ]
        assert all(e.trajectory_error <= e.bound for e in res.extensions)

    @pytest.mark.parametrize("entry", ["extend_discrete", "extend_continuous",
                                       "iterative_koopman_eigensolver"])
    def test_p_max_below_one_is_refused(self, linear2d_model, entry):
        # with no power to emit, the loop would report its budget never exceeded
        sys_, model = linear2d_model
        flowed = self.make_flow(sys_, EvalGrid((-1, -1), (1, 1), 0.5))
        kw = dict(epsilon=0.1, eps_G=1e-4, L=1.0, M=math.sqrt(2), p_max=0)
        with pytest.raises(ConfigurationError, match="p_max must be >= 1, got 0"):
            if entry == "extend_discrete":
                extend_discrete(self.eigpair(model), model, flowed, 0.1, 1e-6, p_max=0)
            elif entry == "extend_continuous":
                extend_continuous(self.eigpair(model), model, flowed, **kw)
            else:
                iterative_koopman_eigensolver(model, flowed, n=1, **kw)

    @pytest.mark.parametrize("entry", ["extend_discrete", "extend_continuous"])
    @pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan])
    def test_nonpositive_epsilon_is_refused(self, linear2d_model, entry, epsilon):
        # a NaN budget was taken and certified nothing
        sys_, model = linear2d_model
        flowed = self.make_flow(sys_, EvalGrid((-1, -1), (1, 1), 0.5))
        with pytest.raises(ConfigurationError, match="epsilon must be positive"):
            if entry == "extend_discrete":
                extend_discrete(self.eigpair(model), model, flowed, epsilon, 1e-6)
            else:
                extend_continuous(self.eigpair(model), model, flowed, epsilon, 1e-4, 1.0, 1.0)

    def test_negative_constant_is_refused_at_p1(self, linear2d_model):
        # the stopping rule reads continuous_bound itself, so a negative
        # constant is refused rather than read as a bound above epsilon
        sys_, model = linear2d_model
        flowed = self.make_flow(sys_, EvalGrid((-1, -1), (1, 1), 0.5))
        with pytest.raises(ConfigurationError, match="bound inputs must be nonnegative"):
            extend_continuous(self.eigpair(model), model, flowed, 0.1, 1e-4, -1.0, 1.0)

    def test_zero_integration_error_caps(self, linear2d_model):
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.25)
        res = extend_continuous(
            self.eigpair(model), model, self.make_flow(sys_, grid), epsilon=0.1, eps_G=0.0,
            L=1.0, M=math.sqrt(2), p_max=9,
        )
        assert res.max_power == 9

    def test_emitted_powers_respect_certificate(self, linear2d_model):
        # while the loop runs, the certified bound stays below epsilon
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.25)
        eps, eps_G = 0.2, 1e-4
        res = extend_continuous(
            self.eigpair(model), model, self.make_flow(sys_, grid), epsilon=eps, eps_G=eps_G,
            L=1.0, M=math.sqrt(2),
        )
        assert len(res) >= 1
        for ext in res.extensions:
            assert ext.bound <= eps * (1 + 1e-12)

    def test_weights_are_the_left_eigenvector(self):
        K = np.array([[0.9, 0.3], [0.0, 0.5]])
        model = KoopmanModel(dict=identity_dictionary(2), K=K, dt=0.1, fit_residual=0.0)
        grid = EvalGrid((-1, -1), (1, 1), 0.5)
        flowed = FlowedGrid(grid.points, grid.points @ K, 0.1)
        kw = dict(epsilon=0.5, eps_G=0.0, L=1.0, M=math.sqrt(2), p_max=1)
        res = extend_continuous((np.array([0.8, 0.6]), 0.9), model, flowed, **kw)
        base = res.extensions[0].expr.factors[0][0]
        assert base.weights == pytest.approx([0.8, 0.6], abs=1e-15)

    def test_iterative_matches_per_pair_runs(self):
        K = np.diag([0.9, 0.5])
        model = KoopmanModel(dict=identity_dictionary(2), K=K, dt=0.1, fit_residual=0.0)
        grid = EvalGrid((-1, -1), (1, 1), 0.25)
        A = np.diag(np.log(np.diag(K)) / 0.1)

        def flow(pts):
            return pts @ np.diag(np.exp(np.diag(A) * 0.1))

        flowed = FlowedGrid(grid.points, flow(grid.points), 0.1)
        results = iterative_koopman_eigensolver(
            model, flowed, n=2, epsilon=0.15, eps_G=1e-4, L=1.0, M=math.sqrt(2),
        )
        assert len(results) == 2
        assert results[0].eigenvalue == pytest.approx(0.9 + 0j, abs=1e-10)
        assert results[1].eigenvalue == pytest.approx(0.5 + 0j, abs=1e-10)
        for got in results:
            base = got.result.extensions[0].expr.factors[0][0]
            solo = extend_continuous(
                (base.weights, got.eigenvalue), model, flowed,
                epsilon=0.15, eps_G=1e-4, L=1.0, M=math.sqrt(2),
            )
            assert solo.max_power == got.result.max_power
            for a, b in zip(solo.extensions, got.result.extensions):
                assert a.bound == pytest.approx(b.bound, rel=1e-12)

    def test_conjugate_partner_carries_the_conjugate_powers(self):
        r, th = 0.9, 0.3
        K = r * np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        model = KoopmanModel(dict=identity_dictionary(2), K=K, dt=0.1, fit_residual=0.0)
        grid = EvalGrid((-1, -1), (1, 1), 0.25)
        flowed = FlowedGrid(grid.points, grid.points @ K.T, 0.1)
        first, partner = iterative_koopman_eigensolver(
            model, flowed, n=2, epsilon=0.5, eps_G=1e-4, L=1.0, M=math.sqrt(2), p_max=4,
        )
        assert partner.conjugate_of == 0
        assert partner.eigenvalue == np.conj(first.eigenvalue)
        assert len(partner.result) == len(first.result) >= 1
        for a, b in zip(first.result.extensions, partner.result.extensions, strict=True):
            assert (b.power, b.bound) == (a.power, a.bound)
            assert b.expr.eigenvalue == pytest.approx(np.conj(a.expr.eigenvalue), rel=1e-14)
            assert b.expr.eigenvalue == pytest.approx(partner.eigenvalue**b.power, rel=1e-12)

    def test_iterative_n_zero_is_refused(self, linear2d_model):
        # it returned no pair, and `extend --n 0` wrote an empty report
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.5)
        with pytest.raises(ConfigurationError, match="asked for 0 eigenpairs of a 2x2 matrix"):
            iterative_koopman_eigensolver(
                model, self.make_flow(sys_, grid), n=0, epsilon=0.1, eps_G=1e-5, L=1.0, M=1.0,
            )

    def test_scaled_eigenfunction_residual_scales(self, quad1d):
        # after unit-grid-norm normalization, the p=1 residual is scale free
        grid = EvalGrid((1.1,), (1.9,), 0.01)
        fmap = FlowMap(quad1d.field, 0.1, method="exact")
        phi = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        scaled = EigenfunctionExpr(
            factors=phi.factors, eigenvalue=phi.eigenvalue,
            eigenvalue_kind=phi.eigenvalue_kind, scale=7.5 + 0j,
        )
        flowed = FlowedGrid.of(fmap, grid)
        e1 = PowerErrors(normalize_to_grid(phi, grid), flowed)(1)[1]
        e2 = PowerErrors(normalize_to_grid(scaled, grid), flowed)(1)[1]
        assert e1 == pytest.approx(e2, abs=1e-14)


class TestCertifiedConstants:
    def test_numeric_and_exact_grids_and_their_constants(self, linear2d_model):
        sys_, model = linear2d_model
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.1)
        fmap = FlowMap(sys_.field, model.dt, method="euler", step=0.001)
        numeric, exact, eps_G, L, M = _certified_constants(model, sys_, grid, fmap)
        assert np.array_equal(numeric.image, fmap(grid.points))
        assert np.array_equal(exact.image,
                              FlowMap(sys_.field, model.dt, method="exact")(grid.points))
        assert eps_G == integration_error_sup(numeric, exact) > 0
        assert (L, M) == (spectral_norm_bound_L(model.dict, grid),
                          feature_sup_M(model.dict, grid))

    def test_certify_on_grid_reports_the_constants_of_its_rk45_grid(self, linear2d_model):
        sys_, model = linear2d_model
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.25)
        rk = FlowMap(sys_.field, model.dt, method="rk45", rel_tol=1e-11, abs_tol=1e-13)
        _, *constants = certify_on_grid(model, sys_, grid, 2, 0.1, 3, seed=0)
        assert constants == list(_certified_constants(model, sys_, grid, rk)[2:])

    def test_system_without_a_closed_form_flow_is_refused(self, linear2d_model):
        _, model = linear2d_model
        vdp = make_system("vanderpol")
        grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.5)
        with pytest.raises(ConfigurationError, match="vanderpol has no closed-form flow"):
            _certified_constants(model, vdp, grid, FlowMap(vdp.field, model.dt))


class TestEigenpairSwap:
    def test_lapack_triplets_in_place_of_the_deflation_give_the_same_certified_pairs(
            self, monkeypatch):
        # the deflation yields what eigentriplets returns, so handing the
        # extension the one LAPACK call is a swap at the call site: the same
        # pair layout, statuses and certified powers, eigenvalues within 1e-9
        sys_ = make_system("polarLC")
        snaps = sample_snapshots(sys_, 400, 0.1, ((-2, -2), (2, 2)), seed=3)
        model = fit_edmd(snaps, rbf_dictionary(snaps, 12, bandwidth=1.0, seed=3), ridge=1e-10)
        grid = EvalGrid((-1.5, -1.5), (1.5, 1.5), 0.25)

        def certified():
            pairs, *_ = certify_on_grid(model, sys_, grid, n=5, epsilon=3e-3, p_max=12, seed=0)
            return pairs

        deflated = certified()
        monkeypatch.setattr(extend, "deflate_spectrum", lambda A, n, seed: eigentriplets(A, n))
        swapped = certified()

        def layout(pairs):
            return [(pe.conjugate_of, pe.result.status, [e.power for e in pe.result.extensions])
                    for pe in pairs]

        assert layout(swapped) == layout(deflated)
        assert [pe.conjugate_of for pe in deflated] == [None, None, 1, None, 3]
        assert all(len(pe.result) == 4 for pe in deflated)
        assert np.abs(np.array([pe.eigenvalue for pe in swapped])
                      - np.array([pe.eigenvalue for pe in deflated])).max() < 1e-9


class TestPrincipalFilter:
    def test_quad1d_family_rank_one(self, quad1d):
        grid = EvalGrid((1.0,), (4.0,), 0.005)
        pts = grid.points
        keep = (np.abs(pts[:, 0] - 2) > 0.05) & (np.abs(pts[:, 0] - 3) > 0.05)
        pts = pts[keep]
        fields = []
        for k in range(1, 6):
            for which in (0, 1):
                base = quad1d.analytic_eigenfunctions[which]
                expr = monomial(expr_from_analytic(base), k)
                fields.append(np.log(np.abs(expr.eval(pts))))
        pc = principal_filter(fields)
        assert pc.rank == 1
        s = pc.singular_values
        assert s[1] / s[0] <= 1e-8

    def test_independent_fields_rank_two(self):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 200)
        f1 = np.sin(3 * x) + 2.0
        f2 = np.cos(5 * x) + 2.0
        pc = principal_filter([np.log(f1), np.log(f2)])
        assert pc.rank == 2

    def test_repeated_field_rank_one(self):
        x = np.linspace(0.1, 1, 100)
        f = np.log(x)
        pc = principal_filter([f] * 6)
        assert pc.rank == 1

    def test_empty_mask_raises(self):
        with pytest.raises(EmptySupportError):
            principal_filter([np.full(5, np.nan), np.full(5, np.inf)])


class TestLoopConsistency:
    @pytest.mark.parametrize("loop", ["extend_discrete", "extend_continuous"])
    def test_emitted_range_matches_manual_budget(self, linear2d_model, loop):
        # each loop must emit exactly the powers whose closed-form bound is
        # within epsilon, p by p, each with that bound
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.1)
        fmap = FlowMap(sys_.field, 0.2, method="exact")
        lams, W = np.linalg.eig(model.K.T)
        j = int(np.argmax(lams.real))
        lam, w = float(lams[j].real), W[:, j].real
        eps, dw, eps_G, L, M = 0.1, 1e-6, 1e-4, 1.0, math.sqrt(2)
        flowed = FlowedGrid.of(fmap, grid)
        if loop == "extend_discrete":
            res = extend_discrete((w, lam), model, flowed, eps, dw, p_max=30)
        else:
            res = extend_continuous((w, lam), model, flowed, eps, eps_G, L, M, p_max=30)
        expected = []
        for p in range(1, 31):
            if loop == "extend_discrete":
                bound = discrete_bound(dw, _BoundConstants(model.dict, flowed, lam)(p), p)
            else:
                bound = continuous_bound(abs(lam), M, L, eps_G, p)
            if bound > eps:
                break
            expected.append((p, bound))
        assert [(e.power, e.bound) for e in res.extensions] == expected
        assert 1 <= len(expected) < 30


class TestReportRoundTrip:
    def test_extension_report_json(self, tmp_path, linear2d_model):
        import json

        from koopext.extend import PairExtension, write_extension_report

        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.25)
        fmap = FlowMap(sys_.field, 0.2, method="exact")
        lams, W = np.linalg.eig(model.K.T)
        res = extend_continuous(
            (W[:, 0].real, float(lams[0].real)), model, FlowedGrid.of(fmap, grid),
            epsilon=0.15, eps_G=1e-4, L=1.0, M=math.sqrt(2),
        )
        path = tmp_path / "report.json"
        write_extension_report(path, [PairExtension(complex(lams[0]), res, 1e-12)])
        data = json.loads(path.read_text())
        assert data[0]["extensions"][0]["p"] == 1
        assert data[0]["residual"] == 1e-12
        assert all("bound" in e and "trajectory_error" in e for e in data[0]["extensions"])


class TestTruthErrorAgainstAnalytic:
    def test_dmd_monomials_track_analytic_powers(self, linear2d_model):
        # computed monomials vs the true eigenfunction powers: the distance is
        # small and does not shrink as the power grows
        sys_, model = linear2d_model
        grid = EvalGrid((-1, -1), (1, 1), 0.05)
        lams, W = np.linalg.eig(model.K.T)
        j = int(np.argmin(lams.real))  # the (x1 - x2)/sqrt(2) family
        phi1 = expr_from_weights(model, W[:, j].real, float(lams[j].real))
        truth_base = sys_.analytic_eigenfunctions[0]
        assert abs(truth_base.eigenvalue.real + 0.9) < 1e-12
        errs = []
        for p in (1, 2, 4):
            expr = monomial(phi1, p)

            class TruthPower:
                eigenvalue = truth_base.eigenvalue * p

                def eval(self, pts, _p=p):
                    return truth_base.eval(pts) ** _p

            errs.append(truth_error_report(expr, TruthPower(), grid, p)["error"])
        assert all(e < 1e-3 for e in errs)
        assert errs[-1] >= errs[0] * 0.1  # scale does not collapse with p
