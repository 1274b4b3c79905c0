import numpy as np
import pytest
from scipy.linalg import expm

from koopext.core import IllConditionedError
from koopext.dictionary import Dictionary, identity_dictionary, rbf_dictionary
from koopext.dynamics import (
    FlowMap,
    SnapshotSet,
    lin5d_base_flow,
    lin5d_lift,
    make_system,
    sample_snapshots,
)
from koopext.regression import fit_edmd, load_model, predict, save_model

A_DEFAULT = np.array([[-0.9, 0.1], [0.0, -0.8]])


def quadratic_dictionary() -> Dictionary:
    """Features (x1, x2, x1^2, x1 x2, x2^2): a span every linear flow maps
    into itself, so EDMD over it is exact on linear data, and a kind other
    than the identity, so the decoder is fitted."""

    def eval_fn(p):
        x1, x2 = p[:, 0], p[:, 1]
        return np.column_stack([x1, x2, x1 * x1, x1 * x2, x2 * x2])

    def jac_fn(p):
        x1, x2 = p[:, 0], p[:, 1]
        one, zero = np.ones_like(x1), np.zeros_like(x1)
        rows = [(one, zero), (zero, one), (2 * x1, zero), (x2, x1), (zero, 2 * x2)]
        return np.stack([np.column_stack(r) for r in rows], axis=1)

    return Dictionary(dim_in=2, eval_fn=eval_fn, jac_fn=jac_fn, spec={"kind": "quadratic"})


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
        a, b = -0.4, -1.0
        rng = np.random.default_rng(9)
        x0 = rng.uniform(-1, 1, size=(400, 2))
        dt = 0.2
        x1 = lin5d_base_flow(x0, dt, a, b)
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


class TestPredict:
    def test_steady_state_stays_constant(self, linear2d_model):
        traj = predict(linear2d_model, np.zeros(2), 20)
        assert np.max(np.abs(traj)) < 1e-9

    def test_matches_exact_flow(self, linear2d_model):
        sys_ = make_system("linear2d")
        x0 = np.array([1.0, 1.0])
        traj = predict(linear2d_model, x0, 50)
        t_expected = np.array(
            [expm(A_DEFAULT * (0.2 * k)) @ x0 for k in range(51)]
        )
        rms = np.sqrt(np.mean(np.sum((traj - t_expected) ** 2, axis=1)))
        assert rms <= 1e-4

    def test_zero_steps(self, linear2d_model):
        x0 = np.array([0.3, -0.4])
        traj = predict(linear2d_model, x0, 0)
        assert traj.shape == (1, 2)
        assert np.array_equal(traj[0], x0)

    def test_nonidentity_dictionary_decodes(self):
        sys_ = make_system("linear2d")
        snaps = sample_snapshots(sys_, 300, 0.2, ((-2, -2), (2, 2)), seed=13)
        dic = quadratic_dictionary()
        model = fit_edmd(snaps, dic)
        traj = predict(model, np.array([0.5, -0.5]), 10)
        exact = expm(A_DEFAULT * 2.0) @ np.array([0.5, -0.5])
        assert traj[-1] == pytest.approx(exact, abs=1e-4)


class TestSerialization:
    def test_round_trip(self, tmp_path, linear2d_model):
        stem = str(tmp_path / "model")
        save_model(stem, linear2d_model)
        back = load_model(stem)
        assert np.array_equal(back.K, linear2d_model.K)
        assert back.dt == linear2d_model.dt
        assert back.dict.spec["kind"] == "identity"
        x0 = np.array([0.2, 0.9])
        assert np.array_equal(predict(back, x0, 5), predict(linear2d_model, x0, 5))
