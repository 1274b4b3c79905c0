from dataclasses import replace

import numpy as np
import pytest

from koopext.bridge import (
    continue_across,
    fit_bridge,
    fit_local_family,
    leading_member,
)
from koopext.core import ConfigurationError, EmptySupportError, EvalGrid, FlowedGrid
from koopext.extend import PowerErrors, expr_from_analytic
from koopext.dynamics import FlowMap, make_system

@pytest.fixture(scope="module")
def quad1d():
    return make_system("quad1d")


@pytest.fixture(scope="module")
def family_a(quad1d):
    return fit_local_family(quad1d, 2.0, 0.85, 100, 0.05, seed=1, dt=0.1, n_pairs=4000)


@pytest.fixture(scope="module")
def family_b(quad1d):
    return fit_local_family(quad1d, 3.0, 0.85, 80, 0.15, seed=2, dt=0.1, n_pairs=8000)


@pytest.fixture(scope="module")
def edmd_bridge(family_a, family_b):
    return fit_bridge(leading_member(family_a), leading_member(family_b), (2.25, 2.75),
                      tikhonov=1e-8)


class TestLocalFamilies:
    def test_members_pass_spurious_filter(self, quad1d, family_a, family_b):
        for fam, anchor in ((family_a, 2.0), (family_b, 3.0)):
            assert len(fam) >= 1
            # the filter's grid: 257 points over the fit window, flowed by dt
            lo, hi = anchor - 0.85, anchor + 0.85
            grid = EvalGrid((lo,), (hi,), (hi - lo) / 256)
            flowed = FlowedGrid.of(FlowMap(quad1d.field, 0.1, method="exact"), grid)
            for m in fam:
                assert PowerErrors(m, flowed)(1)[1] <= 1e-2
                assert m.eigenvalue.imag == 0

    def test_anchor2_leading_member_tracks_analytic(self, quad1d, family_a):
        lead = leading_member(family_a)
        grid = EvalGrid((1.2,), (2.8,), 0.01)
        truth = quad1d.analytic_eigenfunctions[0].eval(grid.points).real
        got = lead.eval(grid.points).real
        assert abs(np.corrcoef(truth, got)[0, 1]) >= 0.99

    def test_anchor3_leading_member_tracks_matched_power(self, quad1d, family_b):
        # the fit converges to a power of the principal member; on either side
        # of the unstable anchor the eigenfunction carries its own scalar (the
        # two sides are separate invariant sets), so correlate per side against
        # the analytic member with the matched exponent
        lead = leading_member(family_b)
        rate = np.log(lead.eigenvalue.real) / 0.1
        lam_b = quad1d.analytic_eigenfunctions[1].eigenvalue.real  # +1
        s = rate / lam_b
        assert 0.5 < s < 1.5
        for lo, hi in ((2.2, 2.95), (3.05, 3.8)):
            grid = EvalGrid((lo,), (hi,), 0.005)
            truth = np.abs(quad1d.analytic_eigenfunctions[1].eval(grid.points)) ** s
            got = np.abs(lead.eval(grid.points))
            assert abs(np.corrcoef(truth, got)[0, 1]) >= 0.99

    @pytest.mark.parametrize("n_centers", [0, -1])
    def test_fewer_than_one_center_is_refused(self, quad1d, n_centers):
        # refused before sampling; -1 would otherwise reach np.linspace's ValueError
        with pytest.raises(ConfigurationError, match=f"n_centers must be >= 1, got {n_centers}"):
            fit_local_family(quad1d, 2.0, 0.85, n_centers, 0.05)

    def test_zero_threshold_empties_family(self, quad1d):
        fam = fit_local_family(
            quad1d, 2.0, 0.85, 100, 0.05, spurious_threshold=0.0, seed=1,
            dt=0.1, n_pairs=400,
        )
        assert len(fam) == 0


class TestFitBridge:
    def test_analytic_reciprocal_pair(self, quad1d):
        bm = fit_bridge(
            expr_from_analytic(quad1d.analytic_eigenfunctions[0]),
            expr_from_analytic(quad1d.analytic_eigenfunctions[1]),
            (2.25, 2.75),
            tikhonov=0.0,
        )
        assert abs(bm.c_forward + 1.0) <= 1e-10
        assert abs(bm.c_backward + 1.0) <= 1e-10
        assert abs(bm.c_forward * bm.c_backward - 1.0) <= 1e-8

    def test_left_equals_right_gives_unit_coefficient(self, quad1d):
        phi = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        bm = fit_bridge(phi, phi, (2.25, 2.75), tikhonov=0.0)
        assert bm.c_forward == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalue_ratio_law_on_analytic_powers(self, quad1d):
        from koopext.extend import monomial

        phi = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        left = monomial(phi, 2)
        right = monomial(phi, -3)
        bm = fit_bridge(left, right, (2.3, 2.7), tikhonov=0.0)
        assert bm.c_forward == pytest.approx(-1.5, abs=1e-8)  # ratio of rates
        assert bm.c_forward * bm.c_backward == pytest.approx(1.0, abs=1e-8)

    def test_edmd_bridge_recovers_rate_ratio(self, edmd_bridge, family_a, family_b):
        la, lb = leading_member(family_a), leading_member(family_b)
        expected = np.log(lb.eigenvalue.real) / np.log(la.eigenvalue.real)
        assert edmd_bridge.c_forward == pytest.approx(expected, rel=2e-2)
        assert edmd_bridge.c_forward * edmd_bridge.c_backward == pytest.approx(1.0, abs=1e-2)

    def test_overlap_consistency_invariant(self, edmd_bridge):
        pts = np.linspace(2.25, 2.75, 256).reshape(-1, 1)
        mapped = continue_across(edmd_bridge, source="right", points=pts)
        target = np.abs(edmd_bridge.right_expr.eval(pts))
        rel = np.sqrt(np.mean((mapped - target) ** 2)) / np.sqrt(np.mean(target**2))
        assert rel <= 0.05
        assert rel <= 2.0 * max(edmd_bridge.residuals)

    @pytest.mark.parametrize("window", [(3.0, 2.0), (2.5, 2.5)])
    def test_window_without_lo_below_hi_is_refused(self, quad1d, window):
        phi = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        with pytest.raises(ConfigurationError, match=r"window must have lo < hi, got \["):
            fit_bridge(phi, phi, window, tikhonov=0.0)

    def test_negative_tikhonov_is_refused(self, quad1d):
        phi = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        with pytest.raises(ConfigurationError, match="tikhonov must be nonnegative"):
            fit_bridge(phi, phi, (2.25, 2.75), tikhonov=-1.0)

    def test_masked_out_window_raises(self, quad1d):
        # the zero function has no finite log-magnitude anywhere on the window
        zero = replace(expr_from_analytic(quad1d.analytic_eigenfunctions[0]), scale=0.0)
        with pytest.raises(EmptySupportError):
            fit_bridge(zero, zero, (2.25, 2.75), tikhonov=0.0)


class TestContinueAcross:
    def test_source_restricted_to_overlap_reproduces_itself(self, quad1d):
        # continuing onto the fitting window reproduces the (rescaled) source
        phi1 = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        phi2 = expr_from_analytic(quad1d.analytic_eigenfunctions[1])
        bm = fit_bridge(phi1, phi2, (2.25, 2.75), tikhonov=0.0)
        pts = np.linspace(2.3, 2.7, 64).reshape(-1, 1)
        cont = continue_across(bm, source="left", points=pts)
        src = np.abs(bm.left_expr.eval(pts))
        assert cont == pytest.approx(src, rel=1e-10)

    def test_cubic_analytic_continuation_past_singularity(self):
        # the power relation carries phi1 past its blow-up at b onto (b, c)
        sys_ = make_system("cubic1d")  # a=-1, b=0, c=3
        phi1 = expr_from_analytic(sys_.analytic_eigenfunctions[0])
        phi2 = expr_from_analytic(sys_.analytic_eigenfunctions[1])
        bm = fit_bridge(phi1, phi2, (-0.9, -0.1), tikhonov=0.0)
        lam1 = sys_.analytic_eigenfunctions[0].eigenvalue.real
        lam2 = sys_.analytic_eigenfunctions[1].eigenvalue.real
        assert bm.c_backward == pytest.approx(lam1 / lam2, abs=1e-10)
        xs = np.linspace(0.05, 2.9, 200).reshape(-1, 1)
        cont = continue_across(bm, source="left", points=xs)
        truth = np.abs(sys_.analytic_eigenfunctions[0].eval(xs))
        scale = float(np.sum(cont * truth) / np.sum(cont**2))
        assert scale * cont == pytest.approx(truth, rel=1e-8)

    def test_edmd_continuation_past_the_far_anchor(self, quad1d, edmd_bridge):
        xs = np.linspace(3.02, 3.5, 120).reshape(-1, 1)
        cont = continue_across(edmd_bridge, source="left", points=xs)
        truth = np.abs(quad1d.analytic_eigenfunctions[0].eval(xs))
        scale = float(np.sum(cont * truth) / np.sum(cont**2))
        rel = np.sqrt(np.mean((scale * cont - truth) ** 2)) / np.sqrt(np.mean(truth**2))
        assert rel <= 0.10

    def test_singular_partner_points_stay_tagged(self, quad1d):
        from koopext.extend import monomial

        phi1 = expr_from_analytic(quad1d.analytic_eigenfunctions[0])
        phi2m = monomial(expr_from_analytic(quad1d.analytic_eigenfunctions[1]), -1)
        bm = fit_bridge(phi1, phi2m, (2.25, 2.75), tikhonov=0.0)
        out = continue_across(bm, source="left", points=np.array([[3.0], [3.4]]))
        assert np.isnan(out[0])
        assert np.isfinite(out[1])
