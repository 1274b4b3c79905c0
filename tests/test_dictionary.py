import json

import numpy as np
import pytest

from koopext.core import ConfigurationError, EvalGrid
from koopext.dictionary import (
    dictionary_from_spec,
    feature_sup_M,
    identity_dictionary,
    kmeans_centers,
    monomial_dictionary,
    rbf_dictionary,
    spectral_norm_bound_L,
)
from koopext.dynamics import make_system, sample_snapshots


def fd_jacobian(dic, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    d = x.size
    J = np.empty((dic.eval(x).shape[1], d))
    for j in range(d):
        h = step * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (dic.eval(xp[None, :])[0] - dic.eval(xm[None, :])[0]) / (2 * h)
    return J


def assert_jacobian_consistent(dic, points, rtol=1e-5):
    J = dic.jacobian(points)
    for i, x in enumerate(points):
        ref = fd_jacobian(dic, x)
        scale = max(1.0, np.abs(ref).max())
        assert np.max(np.abs(J[i] - ref)) < rtol * scale


class TestIdentity:
    def test_eval_is_state(self):
        dic = identity_dictionary(2)
        assert np.array_equal(dic.eval(np.array([[3.0, 4.0]])), [[3.0, 4.0]])
        dic1 = identity_dictionary(1)
        assert dic1.eval(np.array([[0.0]]))[0, 0] == 0.0

    def test_spectral_norm_is_one(self):
        dic = identity_dictionary(2)
        grid = EvalGrid((-1, -1), (1, 1), 0.25)
        assert spectral_norm_bound_L(dic, grid) == pytest.approx(1.0)

    def test_feature_sup_on_square(self):
        dic = identity_dictionary(2)
        grid = EvalGrid((-1, -1), (1, 1), 0.01)
        assert feature_sup_M(dic, grid) == pytest.approx(np.sqrt(2.0))


class TestMonomial:
    def test_degree_one_1d(self):
        dic = monomial_dictionary(1, 1)  # {1, x}
        grid = EvalGrid((-1.0,), (1.0,), 0.05)
        assert dic.eval(grid.points).shape == (len(grid), 2)
        assert spectral_norm_bound_L(dic, grid) == pytest.approx(1.0)

    def test_feature_sup_degree_two(self):
        dic = monomial_dictionary(1, 2)  # {1, x, x^2}
        grid = EvalGrid((-2.0,), (2.0,), 0.01)
        assert feature_sup_M(dic, grid) == pytest.approx(np.sqrt(21.0), rel=1e-12)

    def test_jacobian_matches_finite_differences(self):
        dic = monomial_dictionary(2, 3)
        rng = np.random.default_rng(0)
        assert_jacobian_consistent(dic, rng.uniform(-1.5, 1.5, size=(200, 2)))


class TestKMeans:
    def test_bitwise_determinism(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((300, 2))
        c1 = kmeans_centers(pts, 12, seed=9)
        c2 = kmeans_centers(pts, 12, seed=9)
        assert np.array_equal(c1, c2)

    def test_center_count_and_coverage(self):
        rng = np.random.default_rng(1)
        pts = np.vstack(
            [rng.normal(loc, 0.1, size=(60, 2)) for loc in ([0, 0], [3, 0], [0, 3])]
        )
        centers = kmeans_centers(pts, 3, seed=0)
        assert centers.shape == (3, 2)
        targets = np.array([[0, 0], [3, 0], [0, 3]], dtype=float)
        for t in targets:
            assert np.min(np.linalg.norm(centers - t, axis=1)) < 0.2

    def test_too_many_centers_rejected(self):
        with pytest.raises(ConfigurationError):
            kmeans_centers(np.zeros((3, 1)), 5, seed=0)


@pytest.fixture(scope="module")
def snaps():
    sys_ = make_system("linear2d")
    return sample_snapshots(sys_, 200, 0.1, ((-2, -2), (2, 2)), seed=21)


class TestRBF:
    def test_kernel_peak_at_center(self, snaps):
        dic = rbf_dictionary(snaps, n_centers=10, bandwidth=0.3, seed=0)
        centers = np.asarray(dic.spec["centers"])
        feats = dic.eval(centers)
        assert np.diag(feats) == pytest.approx(np.ones(10))

    def test_forty_features(self, snaps):
        dic = rbf_dictionary(snaps, n_centers=40, bandwidth=0.3, seed=0)
        assert dic.eval(snaps.x).shape == (200, 40)

    def test_bandwidths_give_distinct_features(self):
        sys_ = make_system("quad1d")
        snaps = sample_snapshots(sys_, 200, 0.05, ((1.0,), (4.0,)), seed=5)
        narrow = rbf_dictionary(snaps, 15, bandwidth=0.05, seed=1)
        wide = rbf_dictionary(snaps, 15, bandwidth=0.15, seed=1)
        x = np.linspace(1.2, 3.8, 31).reshape(-1, 1)
        assert not np.allclose(narrow.eval(x), wide.eval(x))

    def test_jacobian_matches_finite_differences(self, snaps):
        dic = rbf_dictionary(snaps, n_centers=8, bandwidth=0.4, seed=2)
        rng = np.random.default_rng(3)
        assert_jacobian_consistent(dic, rng.uniform(-2, 2, size=(200, 2)))

    def test_feature_sup_bounded_by_sqrt_D(self, snaps):
        dic = rbf_dictionary(snaps, n_centers=25, bandwidth=0.3, seed=0)
        grid = EvalGrid((-2, -2), (2, 2), 0.2)
        assert feature_sup_M(dic, grid) <= np.sqrt(25.0) + 1e-12

    def test_single_gaussian_L_matches_dense_scan(self):
        # one feature, center 0, sigma 1: |d psi/dx| = |x| e^{-x^2/2}, peak at |x|=1
        dic = dictionary_from_spec(
            {"kind": "rbf_gaussian", "dim": 1, "bandwidth": 1.0, "centers": [[0.0]]}
        )
        xs = np.arange(-3.0, 3.0 + 1e-12, 1e-4).reshape(-1, 1)
        scan = float(np.max(np.abs(dic.jacobian(xs)[:, 0, 0])))
        assert scan == pytest.approx(np.exp(-0.5), abs=1e-8)
        grid = EvalGrid((-3.0,), (3.0,), 0.001)
        assert spectral_norm_bound_L(dic, grid) == pytest.approx(scan, abs=1e-6)


class TestConstantsUnderRefinement:
    def test_L_and_M_monotone_under_refinement(self):
        dic = dictionary_from_spec(
            {"kind": "rbf_gaussian", "dim": 1, "bandwidth": 0.7, "centers": [[0.3], [-0.4]]}
        )
        prev_L, prev_M = 0.0, 0.0
        for h in [0.4, 0.2, 0.1, 0.05]:
            grid = EvalGrid((-2.0,), (2.0,), h)
            L = spectral_norm_bound_L(dic, grid)
            M = feature_sup_M(dic, grid)
            assert L >= prev_L - 1e-15 and M >= prev_M - 1e-15
            prev_L, prev_M = L, M


class TestSerialization:
    def test_json_round_trip(self):
        sys_ = make_system("linear2d")
        snaps = sample_snapshots(sys_, 100, 0.1, ((-2, -2), (2, 2)), seed=8)
        dic = rbf_dictionary(snaps, 6, bandwidth=0.5, seed=4)
        back = dictionary_from_spec(json.loads(json.dumps(dic.spec)))
        pts = snaps.x[:20]
        assert np.array_equal(back.eval(pts), dic.eval(pts))
