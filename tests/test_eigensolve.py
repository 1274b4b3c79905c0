import math

import numpy as np
import pytest

from koopext.core import ConfigurationError, FlowedGrid, NearDefectiveError
from koopext.dictionary import identity_dictionary
from koopext.eigensolve import (
    _warm_start,
    deflate_spectrum,
    eigen2d,
    eigvector2d,
    power_iteration_complex,
    qr_iteration,
    quasi_triangular_eigenvalues,
)
from koopext.extend import iterative_koopman_eigensolver
from koopext.regression import KoopmanModel


def random_matrix_with_spectrum(lams, seed, cond_cap=20.0):
    """P diag(lams) P^{-1} with a real similarity of bounded condition number.

    Complex eigenvalues must come in conjugate pairs; each pair becomes a
    2x2 rotation-scale block so the product is real.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    used = set()
    lams = list(lams)
    for i, lam in enumerate(lams):
        if i in used:
            continue
        if abs(lam.imag) < 1e-14:
            blocks.append(np.array([[lam.real]]))
            used.add(i)
        else:
            j = next(
                k for k, o in enumerate(lams) if k not in used and k != i
                and abs(o - np.conj(lam)) < 1e-12
            )
            blocks.append(np.array([[lam.real, lam.imag], [-lam.imag, lam.real]]))
            used.update({i, j})
    n = sum(b.shape[0] for b in blocks)
    D = np.zeros((n, n))
    at = 0
    for b in blocks:
        k = b.shape[0]
        D[at : at + k, at : at + k] = b
        at += k
    while True:
        P = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        if np.linalg.cond(P) <= cond_cap:
            break
    return P @ D @ np.linalg.inv(P)


def multiset_close(a, b, tol):
    a = sorted(np.asarray(a, dtype=complex), key=lambda z: (z.real, z.imag))
    b = sorted(np.asarray(b, dtype=complex), key=lambda z: (z.real, z.imag))
    assert len(a) == len(b)
    return max(abs(x - y) for x, y in zip(a, b)) <= tol


def rayleigh(A, v):
    return float(v @ (A @ v)) / float(v @ v)


class TestPowerIteration:
    """The plain power steps that warm-start power_iteration_complex."""

    def test_diagonal_dominant(self):
        A = np.diag([3.0, 2.0, 1.0])
        v = _warm_start(A, seed=1)
        assert rayleigh(A, v) == pytest.approx(3.0, abs=1e-10)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-8)

    def test_jordanish_2x2(self):
        # closed-form oracle: eigenvalues 2 and 1, dominant eigenvector e1
        A = np.array([[2.0, 1.0], [0.0, 1.0]])
        v = _warm_start(A, seed=0)
        assert rayleigh(A, v) == pytest.approx(2.0, abs=1e-9)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-6)

    def test_identity_converges_immediately(self):
        # the first step already meets the residual rule: the start vector comes back
        v = _warm_start(np.eye(4), seed=2)
        start = np.random.Generator(np.random.Philox(2)).standard_normal(4)
        start /= np.linalg.norm(start)
        assert rayleigh(np.eye(4), v) == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.allclose(np.abs(v), np.abs(start), rtol=0, atol=1e-15)

    def test_convergence_rate_follows_eigenvalue_gap(self):
        # error after m steps decays like (|lam2| / |lam1|)^m
        A = np.diag([2.0, 1.0])
        rng = np.random.default_rng(5)
        v = rng.standard_normal(2)
        v /= np.linalg.norm(v)
        errs = []
        for _ in range(30):
            v = A @ v
            v /= np.linalg.norm(v)
            errs.append(math.sqrt(1.0 - min(1.0, abs(v[0]))))
        rate = (errs[-1] / errs[9]) ** (1.0 / 20.0) if errs[-1] > 0 else 0.0
        assert rate <= 0.55  # |lam2/lam1| = 0.5 plus slack


class TestEigen2D:
    def test_rotation_gives_conjugate_imaginaries(self):
        l1, l2 = eigen2d(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert l1 == pytest.approx(1j)
        assert l2 == pytest.approx(-1j)

    def test_diagonal(self):
        l1, l2 = eigen2d(np.array([[2.0, 0.0], [0.0, 3.0]]))
        assert (l1, l2) == (3.0, 2.0)
        v1 = eigvector2d(np.diag([2.0, 3.0]), 3.0)
        assert abs(v1[1]) == pytest.approx(1.0)

    def test_hand_characteristic_polynomial(self):
        # [[1,4],[1,1]]: lam^2 - 2 lam - 3 = (lam - 3)(lam + 1)
        l1, l2 = eigen2d(np.array([[1.0, 4.0], [1.0, 1.0]]))
        assert l1 == pytest.approx(3.0)
        assert l2 == pytest.approx(-1.0)

    def test_defective_flagged(self):
        v = eigvector2d(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)
        assert abs(v[0]) == pytest.approx(1.0)

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            h = rng.standard_normal((2, 2))
            lams = eigen2d(h)
            for lam in lams:
                # a double root may have a rank-1 eigenspace: check distinct roots only
                if abs(lams[0] - lams[1]) <= 1e-12 * max(np.abs(h).max(), abs(lam), 1e-300):
                    continue
                v = eigvector2d(h, lam)
                assert np.linalg.norm(h @ v - lam * v) < 1e-10 * max(1.0, np.abs(h).max())


class TestPowerIterationComplex:
    def test_rotation_scale_pair(self):
        A = np.array([[0.5, -1.0], [1.0, 0.5]])
        pair = power_iteration_complex(A, seed=0)
        expected = eigen2d(A)[0]  # oracle on the matrix itself
        assert pair.lam == pytest.approx(expected, abs=1e-10)
        assert abs(pair.lam) == pytest.approx(math.sqrt(1.25), abs=1e-12)
        assert np.linalg.norm(A @ pair.right - pair.lam * pair.right) < 1e-10

    def test_non_square_matrix_is_refused(self):
        with pytest.raises(ConfigurationError, match="square matrix"):
            power_iteration_complex(np.ones((2, 3)), seed=0)

    def test_real_dominant_path(self):
        pair = power_iteration_complex(np.diag([3.0, 2.0, 1.0]), seed=1)
        assert pair.lam == pytest.approx(3.0 + 0j, abs=1e-10)

    def test_companion_matrix_roots(self):
        theta = 0.3
        A = np.array([[2.0 * math.cos(theta), -1.0], [1.0, 0.0]])
        pair = power_iteration_complex(A, seed=3)
        assert pair.lam == pytest.approx(np.exp(1j * theta), abs=1e-9)

    def test_positive_imaginary_member_returned(self):
        A = np.array([[0.0, -2.0], [2.0, 0.0]])
        pair = power_iteration_complex(A, seed=0)
        assert pair.lam.imag > 0

    def test_larger_matrix_with_known_pair(self):
        lams = [0.9 + 0.4j, 0.9 - 0.4j, 0.55, -0.3, 0.1]
        A = random_matrix_with_spectrum(lams, seed=12)
        pair = power_iteration_complex(A, seed=0)
        assert pair.lam == pytest.approx(0.9 + 0.4j, abs=1e-8)


class TestDeflation:
    def test_diagonal_full_spectrum(self):
        A = np.diag([3.0, 2.0, 1.0])
        pairs = deflate_spectrum(A, 3, seed=0)
        assert [p.lam.real for p in pairs] == pytest.approx([3.0, 2.0, 1.0], abs=1e-9)
        for p in pairs:
            assert np.linalg.norm(A @ p.right - p.lam * p.right) < 1e-8
            assert np.linalg.norm(A.T @ p.left - p.lam * p.left) < 1e-6
            assert p.left @ p.right == pytest.approx(1.0, abs=1e-10)

    def test_constructed_spectrum_with_conjugate_pair(self):
        lams = [1.1, 0.8 + 0.5j, 0.8 - 0.5j, 0.45, -0.2, 0.05]
        A = random_matrix_with_spectrum(lams, seed=3)
        pairs = deflate_spectrum(A, 6, seed=0)
        assert multiset_close([p.lam for p in pairs], lams, 1e-8)

    def test_conjugates_ship_together(self):
        lams = [0.9 + 0.6j, 0.9 - 0.6j, 0.2]
        A = random_matrix_with_spectrum(lams, seed=7)
        pairs = deflate_spectrum(A, 1, seed=0)
        assert len(pairs) == 2
        assert pairs[1].lam == pytest.approx(np.conj(pairs[0].lam))

    def test_too_many_pairs_rejected(self):
        with pytest.raises(ConfigurationError):
            deflate_spectrum(np.eye(2), 3)

    def test_near_defective_matrix_raises_in_both_solvers(self):
        # eigenvalues 1 and 0.5, but the huge coupling makes the left and
        # right eigenvectors of 1 nearly orthogonal: |w^T v| ~ 6e-14
        K = np.array([[1.0, 1e13], [0.0, 0.5]])
        with pytest.raises(NearDefectiveError, match=r"eigenpair 0: \|w\^T v\|"):
            deflate_spectrum(K, 2)
        model = KoopmanModel(dict=identity_dictionary(2), K=K, dt=0.1, fit_residual=0.0)
        pts = np.array([[0.5, -0.5]])
        with pytest.raises(NearDefectiveError, match=r"eigenpair 0: \|w\^T v\|"):
            iterative_koopman_eigensolver(
                model, FlowedGrid(pts, pts, 0.1), n=2, epsilon=0.1, eps_G=1e-9, L=1.0,
                M=1.0,
            )


class TestQRIteration:
    def test_upper_triangular_fixed_point(self):
        A = np.array([[2.0, 1.0, 0.5], [0.0, 1.0, 0.3], [0.0, 0.0, 0.5]])
        out = qr_iteration(A, 5)
        assert np.max(np.abs(out - A)) < 1e-12

    def test_symmetric_converges_to_diagonal(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = qr_iteration(A, 200)
        assert abs(out[1, 0]) < 1e-8
        assert sorted(np.diag(out)) == pytest.approx([1.0, 3.0], abs=1e-8)

    def test_eigenvalue_multiset_preserved_each_step(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 5))
        coeffs = np.poly(A)
        out = qr_iteration(A, 1)
        assert np.poly(out) == pytest.approx(coeffs, rel=1e-8, abs=1e-8)
        out = qr_iteration(A, 37)
        assert np.poly(out) == pytest.approx(coeffs, rel=1e-8, abs=1e-8)

    def test_quasi_triangular_extraction(self):
        lams = [1.2, 0.7 + 0.3j, 0.7 - 0.3j, 0.25]
        A = random_matrix_with_spectrum(lams, seed=4)
        T = qr_iteration(A, 600)
        got = quasi_triangular_eigenvalues(T)
        assert multiset_close(got, lams, 1e-7)


class TestCrossValidation:
    def test_deflation_agrees_with_qr_on_random_well_conditioned(self):
        # moduli kept apart so both unshifted iterations resolve the spectrum
        rng = np.random.default_rng(0)
        for trial in range(10):
            n = int(rng.integers(4, 9))
            lams = []
            mod = 1.0
            while len(lams) < n:
                mod *= 1.35
                if rng.random() < 0.3 and n - len(lams) >= 2:
                    ang = rng.uniform(0.3, math.pi - 0.3)
                    lams += [mod * np.exp(1j * ang), mod * np.exp(-1j * ang)]
                else:
                    lams.append(mod * (1 if rng.random() < 0.7 else -1))
            A = random_matrix_with_spectrum(lams[:n], seed=100 + trial)
            got_deflate = [p.lam for p in deflate_spectrum(A, n, seed=trial)]
            got_qr = quasi_triangular_eigenvalues(qr_iteration(A, 800))
            scale = max(abs(l) for l in lams[:n])
            assert multiset_close(got_deflate, got_qr, 1e-6 * scale)


class TestEDMDMatrixDeflation:
    def test_desk_scale_edmd_matrix_first_nine_pairs(self):
        # deflation on a fitted EDMD matrix: every returned pair must satisfy
        # both residuals relative to the matrix norm
        from koopext.dictionary import rbf_dictionary
        from koopext.dynamics import make_system, sample_snapshots, softplus, transform_snapshots
        from koopext.regression import fit_edmd

        lin = make_system("linear2d")
        snaps = transform_snapshots(
            sample_snapshots(lin, 400, 0.02, ((-2, -2), (2, 2)), seed=5), softplus
        )
        dic = rbf_dictionary(snaps, 40, bandwidth=0.7, seed=5)
        K = fit_edmd(snaps, dic, ridge=1e-10).K
        pairs = deflate_spectrum(K, 9, seed=0)
        norm_K = np.linalg.norm(K)
        tol = 1e-8
        for p in pairs:
            assert np.linalg.norm(K.astype(complex) @ p.right - p.lam * p.right) <= tol * norm_K
            # the left vector is biorthogonally scaled; measure per unit norm
            left_res = np.linalg.norm(K.T.astype(complex) @ p.left - p.lam * p.left)
            assert left_res <= tol * norm_K * np.linalg.norm(p.left)

    def test_eigenvector_csv(self, tmp_path):
        from koopext.eigensolve import write_eigenvectors_csv

        pairs = deflate_spectrum(np.diag([3.0, 2.0, 1.0]), 3, seed=0)
        write_eigenvectors_csv(str(tmp_path / "vecs"), pairs)
        right = np.loadtxt(tmp_path / "vecs_right.csv", delimiter=",")
        assert right.shape == (6, 3)  # real and imaginary blocks stacked
