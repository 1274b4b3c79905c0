import json
import re

import numpy as np
import pytest

from koopext.core import _BANDWIDTH, ConfigurationError, EvalGrid
from koopext.dictionary import (
    _dictionary_from_centers,
    dictionary_from_spec,
    feature_sup_M,
    identity_dictionary,
    kmeans_centers,
    rbf_dictionary,
    spectral_norm_bound_L,
)
from koopext.dynamics import make_system, numeric_jacobian, sample_snapshots


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

    @pytest.mark.parametrize("k", [0, -2])
    def test_fewer_than_one_center_rejected(self, k):
        with pytest.raises(ConfigurationError, match=f"asked for {k} centers"):
            kmeans_centers(np.zeros((3, 1)), k, seed=0)


def frozen_kmeans_centers(points, k, seed, events):
    """kmeans_centers as it was before its seeding kept a running minimum:
    each draw recomputes every point's distance to all chosen centers. Kept
    as the oracle the new routine must match byte for byte. `events` counts
    the zero-total draws and the empty-cluster re-seeds it passes through."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rng = np.random.Generator(np.random.Philox(seed))

    def sq_dists(centers):
        return np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)

    centers = pts[rng.integers(pts.shape[0])][None, :]
    while centers.shape[0] < k:
        d2 = np.min(sq_dists(centers), axis=1)
        total = d2.sum()
        if total == 0:
            events["zero_total"] += 1
            idx = rng.integers(pts.shape[0])
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, pts.shape[0] - 1)
        centers = np.vstack([centers, pts[idx]])

    for _ in range(100):
        d2 = sq_dists(centers)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0] == 0:
                events["reseed"] += 1
                far = int(np.argmax(np.min(d2, axis=1)))
                new_centers[j] = pts[far]
            else:
                new_centers[j] = members.mean(axis=0)
        motion = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if motion < 1e-8:
            break
    return centers


def assert_matches_frozen(pts, k, seed):
    events = {"zero_total": 0, "reseed": 0}
    want = frozen_kmeans_centers(pts, k, seed, events)
    got = kmeans_centers(pts, k, seed)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    return events


class TestKMeansBitIdentity:
    # every dimension a run uses (d <= 5), against the routine before the
    # running minimum; the full-size duffing_edmd input is pinned by the
    # golden manifest's model.json, which holds its centers
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_scattered_points(self, d):
        rng = np.random.default_rng(10 + d)
        pts = rng.standard_normal((40, d)) * rng.uniform(0.1, 10.0, size=d)
        for k in (1, 2, 17, 40):
            assert_matches_frozen(pts, k, seed=d)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_repeated_points(self, d):
        # duplicate points give ties; at k = n the last draws have a zero
        # total and pick duplicate centers, whose empty clusters Lloyd re-seeds
        rng = np.random.default_rng(20 + d)
        pts = rng.integers(-1, 2, size=(30, d)).astype(float) * 0.5
        pts = np.vstack([pts, pts[:6]])
        events = {"zero_total": 0, "reseed": 0}
        for k in (1, 2, 17, pts.shape[0]):
            for key, count in assert_matches_frozen(pts, k, seed=3 * d).items():
                events[key] += count
        assert events["zero_total"] > 0 and events["reseed"] > 0

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_identical_points(self, d):
        pts = np.full((12, d), 0.7)
        events = assert_matches_frozen(pts, 5, seed=d)
        assert events["zero_total"] == 4


def frozen_gaussian(centers, bandwidth):
    """The Gaussian eval_fn and jac_fn as they were before they summed the
    squared distances one coordinate at a time: through (n, k, d) arrays.
    Kept as the oracle the new features must match byte for byte."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    sigma2 = float(bandwidth) ** 2

    def eval_fn(p):
        diff = p[:, None, :] - centers[None, :, :]
        return np.exp(-np.sum(diff**2, axis=2) / (2.0 * sigma2))

    def jac_fn(p):
        diff = p[:, None, :] - centers[None, :, :]
        feats = np.exp(-np.sum(diff**2, axis=2) / (2.0 * sigma2))
        return feats[:, :, None] * (-diff / sigma2)

    return eval_fn, jac_fn


class TestGaussianBitIdentity:
    # points on a center (a feature of exactly 1 and a zero Jacobian column),
    # scattered ones, and ones far enough away that exp underflows to 0
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("bandwidth", [0.05, 0.7, 2.2])
    def test_features_and_jacobian_match_the_tensor_form(self, d, bandwidth):
        rng = np.random.default_rng(30 + d)
        centers = rng.standard_normal((17, d)) * rng.uniform(0.5, 3.0, size=d)
        pts = np.vstack([centers[::3], rng.standard_normal((60, d)) * 2.0,
                         centers[:4] + 1e3])
        dic = _dictionary_from_centers(centers, bandwidth)
        eval_fn, jac_fn = frozen_gaussian(centers, bandwidth)
        feats, want = dic.eval(pts), eval_fn(pts)
        assert np.array_equal(feats, want) and feats.tobytes() == want.tobytes()
        jac, want = dic.jacobian(pts), jac_fn(pts)
        assert np.array_equal(jac, want) and jac.tobytes() == want.tobytes()
        assert np.all(feats[:len(centers[::3])].max(axis=1) == 1.0)
        assert np.all(feats[-4:] == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_jacobian_matches_central_differences(self, d):
        rng = np.random.default_rng(40 + d)
        centers = rng.standard_normal((9, d))
        dic = _dictionary_from_centers(centers, 0.8)
        for x in rng.standard_normal((12, d)):
            ref = numeric_jacobian(dic.eval, x)
            assert np.max(np.abs(dic.jacobian(x[None, :])[0] - ref)) < 1e-7


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


class TestGaussianBuilderRefusals:
    # the builder behind rbf_dictionary, dictionary_from_spec and the bridge families
    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf"), 1e170,
                                           1e-170])
    def test_nonpositive_bandwidth(self, snaps, bandwidth):
        # and one whose 2 sigma^2 leaves float range: an infinite bandwidth
        # made every feature 1, a rank-one fit (exit 1); 1e170 overflowed
        # sigma^2, an OverflowError (exit 3) after k-means; 1e-170 gave
        # 2 sigma^2 = 0, a divide by zero and features of 0 or NaN (exit 1)
        named = re.escape(f"bandwidth must be {_BANDWIDTH.says}, got {bandwidth}")
        with pytest.raises(ConfigurationError, match=named):
            _dictionary_from_centers([[0.0]], bandwidth)
        with pytest.raises(ConfigurationError, match=named):
            rbf_dictionary(snaps, 4, bandwidth=bandwidth, seed=0)

    @pytest.mark.parametrize("refused, held", [
        (9.480751908109177e+153, 9.480751908109176e+153),
        (1.5717277847026285e-162, 1.5717277847026288e-162),
    ])
    def test_bandwidth_edges_are_adjacent_floats(self, refused, held):
        assert np.nextafter(refused, held) == held
        assert not _BANDWIDTH.holds(refused) and _BANDWIDTH.holds(held)
        spec = {"kind": "rbf_gaussian", "dim": 1, "bandwidth": held, "centers": [[0.0]]}
        assert dictionary_from_spec(spec).eval([[0.0]])[0, 0] == 1.0

    @pytest.mark.parametrize("centers", [[], np.empty((0, 1))])
    def test_no_centers(self, centers):
        with pytest.raises(ConfigurationError, match="needs at least one center"):
            _dictionary_from_centers(centers, 0.5)
        with pytest.raises(ConfigurationError, match="needs at least one center"):
            dictionary_from_spec({"kind": "rbf_gaussian", "dim": 1, "bandwidth": 0.5,
                                  "centers": np.asarray(centers).tolist()})


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
        assert back.spec == dic.spec

    def test_every_built_spec_reloads_to_itself(self):
        # identity, and Gaussians with k-means centers (the spec keeps the
        # seed) or with given centers, as the bridge families tile them
        snaps = sample_snapshots(make_system("quad1d"), 50, 0.05, ((1.0,), (4.0,)), seed=3)
        for dic in (identity_dictionary(3), rbf_dictionary(snaps, 5, bandwidth=0.2, seed=7),
                    _dictionary_from_centers(np.linspace(1.5, 2.5, 3).reshape(-1, 1), 0.05)):
            assert dictionary_from_spec(json.loads(json.dumps(dic.spec))).spec == dic.spec
