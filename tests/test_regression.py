import math
import os

import numpy as np
import pytest

from koopext.core import ConfigurationError, IllConditionedError
from koopext.dictionary import identity_dictionary, rbf_dictionary
from koopext.dynamics import (
    FlowMap,
    SnapshotSet,
    lin5d_base_flow,
    lin5d_lift,
    make_system,
    sample_snapshots,
)
from koopext.regression import fit_edmd, load_model, save_model


@pytest.fixture(scope="module")
def linear2d_model():
    sys_ = make_system("linear2d")
    snaps = sample_snapshots(sys_, 400, 0.2, ((-2, -2), (2, 2)), seed=17)
    return fit_edmd(snaps, identity_dictionary(2))


class TestFitEDMD:
    def test_linear2d_recovers_flow_eigenvalues(self, linear2d_model):
        lams = np.linalg.eigvals(linear2d_model.K)
        expected = np.exp(np.array([-0.9, -0.8]) * 0.2)
        assert sorted(lams.real) == pytest.approx(sorted(expected), abs=1e-6)
        assert np.max(np.abs(lams.imag)) < 1e-10

    def test_identity_pairs_give_identity_matrix(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3))
        snaps = SnapshotSet(x=x, y=x.copy(), dt=0.1)
        model = fit_edmd(snaps, identity_dictionary(3))
        assert model.K == pytest.approx(np.eye(3), abs=1e-12)

    def test_left_eigenvector_convention(self, linear2d_model):
        # w^T K = lambda w^T must make phi(x) = w^T x an eigenfunction of the data map
        lams, W = np.linalg.eig(linear2d_model.K.T)
        sys_ = make_system("linear2d")
        fmap = FlowMap(sys_.field, 0.2, method="exact")
        pts = np.random.default_rng(0).uniform(-2, 2, size=(100, 2))
        for j in range(2):
            w = W[:, j].real
            resid = fmap(pts) @ w - lams[j].real * (pts @ w)
            assert np.max(np.abs(resid)) < 1e-8

    def test_lin5d_observables_close_under_powers(self):
        # snapshots of the planar system lifted to the five monomial observables
        a = -0.4  # lin5d's rate of x1
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-1, 1, size=(400, 2))
        dt = 0.2
        x1 = lin5d_base_flow(x0, dt)
        snaps = SnapshotSet(x=lin5d_lift(x0), y=lin5d_lift(x1), dt=dt)
        model = fit_edmd(snaps, identity_dictionary(5))
        lams, W = np.linalg.eig(model.K.T)
        order = np.argsort(-lams.real)
        # on lifted states, the square/cube identities hold for the fitted family
        grid2d = np.stack(
            np.meshgrid(np.linspace(-1, 1, 21), np.linspace(-1, 1, 21)), -1
        ).reshape(-1, 2)
        y = lin5d_lift(grid2d)
        lam_sorted = lams.real[order]
        target1 = np.exp(a * dt)
        j1 = order[np.argmin(np.abs(lam_sorted - target1))]
        j2 = order[np.argmin(np.abs(lam_sorted - np.exp(2 * a * dt)))]
        j3 = order[np.argmin(np.abs(lam_sorted - np.exp(3 * a * dt)))]
        phi1 = y @ W[:, j1].real
        phi2 = y @ W[:, j2].real
        phi3 = y @ W[:, j3].real
        # scale freedom fixed at a reference point
        ref = lin5d_lift(np.array([[0.7, 0.3]]))
        c1 = float((ref @ W[:, j1].real)[0])
        c2 = float((ref @ W[:, j2].real)[0])
        c3 = float((ref @ W[:, j3].real)[0])
        assert np.max(np.abs(phi2 * (c1**2 / c2) - phi1**2)) < 1e-6
        assert np.max(np.abs(phi3 * (c1**3 / c3) - phi1**3)) < 1e-6

    def test_rank_deficient_refused_with_condition_number(self):
        x = np.zeros((20, 2))
        x[:, 0] = np.linspace(0, 1, 20)  # second coordinate never moves
        snaps = SnapshotSet(x=x, y=x.copy(), dt=0.1)
        with pytest.raises(IllConditionedError, match="condition number"):
            fit_edmd(snaps, identity_dictionary(2))

    def test_ridge_allows_rank_deficiency(self):
        x = np.zeros((20, 2))
        x[:, 0] = np.linspace(0, 1, 20)
        snaps = SnapshotSet(x=x, y=x.copy(), dt=0.1)
        model = fit_edmd(snaps, identity_dictionary(2), ridge=1e-8)
        assert np.all(np.isfinite(model.K))

    @pytest.mark.parametrize("ridge", [-1e-9, math.nan, math.inf])
    def test_ridge_outside_finite_nonnegative_is_refused(self, ridge):
        # a NaN ridge fit a NaN model and an infinite one K = 0
        snaps = sample_snapshots(make_system("linear2d"), 20, 0.1, ((-2, -2), (2, 2)), seed=3)
        with pytest.raises(ConfigurationError,
                           match=f"ridge must be a finite nonnegative number, got {ridge}"):
            fit_edmd(snaps, identity_dictionary(2), ridge=ridge)

    def test_underdetermined_warns(self):
        sys_ = make_system("linear2d")
        snaps = sample_snapshots(sys_, 10, 0.1, ((-2, -2), (2, 2)), seed=3)
        dic = rbf_dictionary(snaps, 20, bandwidth=0.5, seed=0)
        with pytest.warns(UserWarning, match="underdetermined"):
            fit_edmd(snaps, dic, ridge=1e-8)

    def test_exact_linear_data_residual_tiny(self, linear2d_model):
        assert linear2d_model.fit_residual < 1e-10

    def test_normal_equation_optimality(self):
        sys_ = make_system("softplus2d")
        snaps = sample_snapshots(sys_, 150, 0.05, ((0.2, 0.2), (2.0, 2.0)), seed=6)
        dic = rbf_dictionary(snaps, 10, bandwidth=0.3, seed=0)
        model = fit_edmd(snaps, dic)
        PX, PY = dic.eval(snaps.x), dic.eval(snaps.y)

        def objective(K):
            return float(np.sum((PY - PX @ K.T) ** 2))

        base = objective(model.K)
        rng = np.random.default_rng(0)
        for _ in range(100):
            dK = rng.standard_normal(model.K.shape)
            dK *= 1e-6 / np.linalg.norm(dK)
            assert objective(model.K + dK) >= base - 1e-15


class TestSerialization:
    def test_round_trip(self, tmp_path, linear2d_model):
        stem = str(tmp_path / "model")
        save_model(stem, linear2d_model)
        back = load_model(stem)
        assert np.array_equal(back.K, linear2d_model.K)
        assert back.dt == linear2d_model.dt
        assert back.dict.spec["kind"] == "identity"
        assert sorted(os.listdir(tmp_path)) == ["model.json", "model_K.csv"]
