import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from koopext import eigensolve
from koopext.core import (ConfigurationError, ConvergenceError, DomainError, FlowedGrid,
                          NearDefectiveError)
from koopext.dictionary import identity_dictionary
from koopext.eigensolve import (
    Eigenpair,
    _warm_start,
    _eig_sort_key,
    deflate_spectrum,
    eigen2d,
    eigentriplets,
    eigvector2d,
    power_iteration_complex,
    qr_iteration,
    quasi_triangular_eigenvalues,
)
from koopext.experiments import ExperimentConfig, run
from koopext.extend import iterative_koopman_eigensolver
from koopext.regression import KoopmanModel, load_model


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrix_is_refused_before_the_warm_start(self, monkeypatch, bad):
        # it spun to the step cap (about 20 s at 300,000) and then reported
        # "stagnated ... (best residual nan)"
        def warm_start(A, seed):
            raise AssertionError("the warm start ran on a non-finite matrix")

        monkeypatch.setattr(eigensolve, "_warm_start", warm_start)
        A = np.diag([3.0, 2.0, 1.0])
        A[1, 2] = bad
        named = "power_iteration_complex needs a finite matrix; 1 of its 9 entries are NaN"
        with pytest.raises(DomainError, match=named):
            power_iteration_complex(A, seed=0)
        with pytest.raises(DomainError, match=named):
            deflate_spectrum(A, 2)
        with pytest.raises(DomainError, match="1 of its 1 entries"):
            power_iteration_complex(np.array([[bad]]))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_is_refused(self, max_iter):
        # 0 raised "stagnated after 0 iterations (best residual 0.000e+00)", a
        # residual never computed; the cap is now _ARNOLDI_STEPS, so no entry
        # takes a cap of its own, this one or any other
        with pytest.raises(TypeError, match="max_iter"):
            power_iteration_complex(np.diag([3.0, 2.0]), max_iter=max_iter)
        model = KoopmanModel(dict=identity_dictionary(2), K=np.diag([0.9, 0.5]), dt=0.1,
                             fit_residual=0.0)
        pts = np.array([[0.5, -0.5]])
        with pytest.raises(TypeError, match="max_iter"):
            iterative_koopman_eigensolver(
                model, FlowedGrid(pts, pts, 0.1), n=2, epsilon=0.1, eps_G=1e-9, L=1.0,
                M=1.0, max_iter=max_iter,
            )

    def test_stagnation_names_the_step_cap(self, monkeypatch):
        # a slow pair (0.95 against |0.9 + 0.4i| = 0.985) cannot settle in 7
        # steps; the refusal says how many steps it was given
        monkeypatch.setattr(eigensolve, "_ARNOLDI_STEPS", 7)
        A = random_matrix_with_spectrum([0.9 + 0.4j, 0.9 - 0.4j, 0.95, 0.2], seed=5)
        with pytest.raises(ConvergenceError, match=r"stagnated after 7 iterations \(best"):
            power_iteration_complex(A, seed=0)

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
    def test_pairs_meet_the_eigentriplets_contract(self):
        lams = [1.1, 0.8 + 0.5j, 0.8 - 0.5j, -0.95, 0.45, 0.05]
        A = random_matrix_with_spectrum(lams, seed=3)
        got = deflate_spectrum(A, 6)
        assert all(isinstance(p, Eigenpair) for p in got)
        W = np.column_stack([p.left for p in got])
        V = np.column_stack([p.right for p in got])
        assert np.abs(W.T @ V - np.eye(6)).max() < 1e-8
        for p in got:
            assert np.linalg.norm(p.left) == pytest.approx(1.0, abs=1e-15)
            pivot = p.left[np.abs(p.left).argmax()]
            assert abs(pivot.imag) < 1e-15 and pivot.real > 0
            # both vectors, per unit norm, are eigenvectors of A; the residual
            # reported is the larger of the two on the deflated working matrix
            u = p.right / np.linalg.norm(p.right)
            assert np.linalg.norm(A @ u - p.lam * u) < 1e-9
            assert np.linalg.norm(A.T @ p.left - p.lam * p.left) < 1e-9
            assert 0 < p.residual < 1e-9
            assert np.isrealobj(p.left) == np.isrealobj(p.right) == (p.lam.imag == 0)
        # a +Im half, then its conjugate partner
        k = next(i for i, p in enumerate(got) if p.lam.imag != 0)
        assert got[k].lam.imag > 0 and got[k + 1].lam == np.conj(got[k].lam)
        assert np.array_equal(got[k + 1].left, np.conj(got[k].left))

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

    @pytest.mark.parametrize("n", [3, 0, -1])
    def test_too_many_pairs_rejected(self, n):
        # `eig --n` 0 and -1 now stop at their flag; the library refuses them too
        with pytest.raises(ConfigurationError, match=f"asked for {n} eigenpairs of a 2x2 matrix"):
            deflate_spectrum(np.eye(2), n)

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


class TestEigentriplets:
    def test_one_lapack_call_gives_ordered_biorthogonal_phase_fixed_triplets(self, monkeypatch):
        lams = [1.1, 0.8 + 0.5j, 0.8 - 0.5j, -0.95, 0.45, 0.05]
        A = random_matrix_with_spectrum(lams, seed=3)
        calls = []
        original = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda M: calls.append(M) or original(M))
        got = eigentriplets(A, 6)
        assert len(calls) == 1
        assert multiset_close([p.lam for p in got], lams, 1e-12)
        assert [p.lam for p in got] == sorted((p.lam for p in got), key=_eig_sort_key)
        W = np.column_stack([p.left for p in got])
        V = np.column_stack([p.right for p in got])
        assert np.abs(W.T @ V - np.eye(6)).max() < 1e-12
        for p in got:
            assert np.linalg.norm(p.left) == pytest.approx(1.0, abs=1e-15)
            pivot = p.left[np.abs(p.left).argmax()]
            assert pivot.imag == 0 and pivot.real > 0
            assert p.residual < 1e-13 * np.linalg.norm(A)
            # a real eigenvalue's vectors are real arrays
            assert np.isrealobj(p.left) == np.isrealobj(p.right) == (p.lam.imag == 0)

    def test_a_pair_is_never_split(self):
        lams = [1.1, 0.8 + 0.5j, 0.8 - 0.5j, 0.45]
        A = random_matrix_with_spectrum(lams, seed=3)
        assert len(eigentriplets(A, 1)) == 1
        pair = eigentriplets(A, 2)
        assert len(pair) == 3 and pair[1].lam.imag > 0
        assert pair[2].lam == np.conj(pair[1].lam)
        assert np.allclose(pair[2].left, np.conj(pair[1].left), rtol=0, atol=1e-15)
        assert len(eigentriplets(A, 3)) == 3

    def test_agrees_with_deflation(self):
        # one contract: the deflation returns what the triplets return, vector
        # for vector, the realness of a real eigenvalue's vectors included
        A = random_matrix_with_spectrum([1.1, 0.8 + 0.5j, 0.8 - 0.5j, 0.45, -0.2], seed=7)
        got, want = eigentriplets(A, 5), deflate_spectrum(A, 5, seed=0)
        assert [p.lam for p in got] == pytest.approx([p.lam for p in want], abs=1e-9)
        for p, q in zip(got, want):
            assert np.allclose(p.left, q.left, rtol=0, atol=1e-8)
            assert np.allclose(p.right, q.right, rtol=0, atol=1e-7)
            assert np.isrealobj(q.left) == np.isrealobj(q.right) == (q.lam.imag == 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_refused(self, bad):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(DomainError, match="1 of its 9 entries are NaN or infinite"):
            eigentriplets(A, 1)

    @pytest.mark.parametrize("n", [0, -1, 4])
    def test_count_outside_one_to_dim_is_refused(self, n):
        with pytest.raises(ConfigurationError, match=f"asked for {n} eigenpairs of a 3x3 matrix"):
            eigentriplets(np.eye(3), n)

    @pytest.mark.parametrize("T", [
        [[1.0, 1e13], [0.0, 0.5]],  # |w^T v| = 5e-14 for unit vectors
        [[1.0, 1.0], [0.0, 1.0]],  # a Jordan block
        [[1.0, 1.0], [0.0, 1.0 + 1e-14]],  # a near-Jordan block
    ])
    @pytest.mark.parametrize("seed", range(5))
    def test_near_defective_pair_is_refused_under_a_random_exact_similarity(self, T, seed):
        # a signed permutation with power-of-two scales: the similarity adds
        # no rounding, so LAPACK sees the block's own conditioning
        rng = np.random.default_rng(seed)
        P = np.diag(rng.choice([-1.0, 1.0], 2) * 2.0 ** rng.integers(-3, 4, 2))[rng.permutation(2)]
        A = P @ np.array(T) @ np.linalg.inv(P)
        with pytest.raises(NearDefectiveError, match=r"eigentriplet 0: \|w\^T v\| = .* near defective"):
            eigentriplets(A, 2)

    def test_a_jordan_block_is_refused_without_a_warning(self):
        # the norm of its huge right vector overflowed and warned before the
        # refusal, an untyped failure under -W error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearDefectiveError, match=r"eigentriplet 0: .* near defective"):
                eigentriplets(np.array([[0.0, 1.0], [0.0, 0.0]]), 2)


    def test_duffing_reads_every_mode_when_top_k_passes_the_dimension(self, tmp_path):
        # the runner took the top_k leading modes, or all of a smaller model's
        run(ExperimentConfig("duffing_edmd", seed=7, out_dir=str(tmp_path),
                             params={"n_pairs": 300, "n_rbf": 8, "top_k": 20}))
        dim = load_model(str(tmp_path / "model")).dim
        assert dim < 20 and len(json.loads((tmp_path / "spectrum.json").read_text())) == dim


class TestEDMDMatrixDeflation:
    def test_eigenvector_csv(self, tmp_path):
        from koopext.eigensolve import write_eigenvectors_csv

        pairs = deflate_spectrum(np.diag([3.0, 2.0, 1.0]), 3, seed=0)
        write_eigenvectors_csv(str(tmp_path / "vecs"), pairs)
        right = np.loadtxt(tmp_path / "vecs_right.csv", delimiter=",")
        assert right.shape == (6, 3)  # real and imaginary blocks stacked


# ---------------------------------------------------------------------------
# The Arnoldi power loop before its steps stopped paying for what they never
# read (np.linalg.norm's dispatch, a phase-fixed real candidate built on every
# step, numpy scalars in eigen2d, np.column_stack, a fresh np.eye(2)): the
# loop must return the same bits and make the same extractions.

def frozen_fix_phase(v):
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if pivot == 0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def frozen_warm_start(A, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal(A.shape[0])
    v /= np.linalg.norm(v)
    tol = 1e-12 * max(np.linalg.norm(A), 1e-300)
    w = A @ v
    for _ in range(500):
        nw = np.linalg.norm(w)
        if nw == 0:
            return frozen_fix_phase(v).real
        v = w / nw
        w = A @ v
        if np.linalg.norm(w - float(v @ w) * v) <= tol:
            break
    return frozen_fix_phase(v.astype(complex)).real


def frozen_eigen2d(h):
    h = np.asarray(h, dtype=float)
    tr = h[0, 0] + h[1, 1]
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        s = np.sqrt(disc)
        big = 0.5 * (tr + np.copysign(s, tr))
        if big == 0.0:
            lams = (complex(0.0), complex(0.0))
        else:
            lams = (complex(big), complex(det / big))
    else:
        s = np.sqrt(-disc)
        lams = (complex(tr / 2, s / 2), complex(tr / 2, -s / 2))
    return tuple(sorted(lams, key=lambda lam: (-abs(lam), -lam.real, -lam.imag)))


def frozen_eigvector2d(h, lam):
    h = np.asarray(h, dtype=float)
    M = h.astype(complex) - lam * np.eye(2)
    scale = max(np.abs(h).max(), abs(lam), 1e-300)
    r0, r1 = np.linalg.norm(M[0]), np.linalg.norm(M[1])
    if max(r0, r1) <= 1e-14 * scale:
        return np.array([1.0 + 0j, 0.0 + 0j])
    row = M[0] if r0 >= r1 else M[1]
    v = np.array([-row[1], row[0]])
    return frozen_fix_phase(v / np.linalg.norm(v))


def frozen_arnoldi_2col(A, x):
    v1 = x / np.linalg.norm(x)
    w = A @ v1
    h00 = v1 @ w
    w = w - h00 * v1
    h10 = np.linalg.norm(w)
    if h10 < 1e-14:
        raise ConvergenceError("Krylov breakdown: x is already an eigenvector")
    v2 = w / h10
    w2 = A @ v2
    h01 = v1 @ w2
    h11 = v2 @ w2
    V = np.column_stack([v1, v2])
    h = np.array([[h00, h01], [h10, h11]])
    return h, V


def frozen_power_iteration_complex(A, max_iter, seed, counts):
    # counts["extractions"] tallies the eigvector2d calls, counts["breakdown"]
    # the Krylov-breakdown returns, counts["best"] the returns after max_iter
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return Eigenpair(lam=complex(A[0, 0]), right=np.array([1.0 + 0j]), residual=0.0)
    norm_A = max(np.linalg.norm(A), 1e-300)
    x = frozen_warm_start(A, seed)
    lam_old = complex(np.inf)
    best = None
    Ac = A.astype(complex)
    for _ in range(max_iter):
        try:
            h, V = frozen_arnoldi_2col(A, x)
        except ConvergenceError:
            counts["breakdown"] += 1
            lam = float(x @ (A @ x) / (x @ x))
            v = frozen_fix_phase((x / np.linalg.norm(x)).astype(complex))
            res = float(np.linalg.norm(A @ v - lam * v))
            return Eigenpair(lam=complex(lam), right=v, residual=res)
        lam_c = frozen_eigen2d(h)[0]
        counts["extractions"] += 1
        w2 = frozen_eigvector2d(h, lam_c)
        v_c = V.astype(complex) @ w2
        v_c = frozen_fix_phase(v_c / np.linalg.norm(v_c))
        res_c = float(np.linalg.norm(Ac @ v_c - lam_c * v_c))
        lam_r = complex(h[0, 0])
        v_r = frozen_fix_phase(V[:, 0].astype(complex))
        res_r = float(abs(h[1, 0]))
        if res_r < res_c:
            lam, v, res = lam_r, v_r, res_r
        else:
            lam, v, res = lam_c, v_c, res_c
        if best is None or res < best.residual:
            best = Eigenpair(lam=lam, right=v, residual=res)
        converged = abs(lam - lam_old) < 1e-13 * max(1.0, abs(lam))
        if converged and res <= 1e-10 * norm_A:
            return Eigenpair(lam=lam, right=v, residual=res)
        lam_old = lam
        x_next = A @ x
        nx = np.linalg.norm(x_next)
        if nx < 1e-300:
            break
        x = x_next / nx
    if best is not None and best.residual <= 1e-10 * norm_A:
        counts["best"] += 1
        return best
    raise ConvergenceError(
        f"complex power iteration stagnated after {max_iter} iterations "
        f"(best residual {0.0 if best is None else best.residual:.3e})"
    )


class BitIdentityCheck:
    """Runs each solve through the frozen loop and the module's, and asserts
    that both return the same bits, or raise the same text, after the same
    number of eigvector2d calls. A solve given `steps` runs with the module's
    _ARNOLDI_STEPS set to it; one without, at the shipped cap."""

    def __init__(self, monkeypatch):
        # taken before a test patches the module's name with this check
        self.solver = eigensolve.power_iteration_complex
        self.monkeypatch = monkeypatch
        self.shipped_steps = eigensolve._ARNOLDI_STEPS
        self.frozen = {"extractions": 0, "breakdown": 0, "best": 0}
        self.extractions = 0
        self.solves = 0
        self.outcomes = Counter()
        extract = eigensolve.eigvector2d

        def counted(h, lam):
            self.extractions += 1
            return extract(h, lam)

        monkeypatch.setattr(eigensolve, "eigvector2d", counted)

    def __call__(self, A, seed=0, steps=None):
        steps = self.shipped_steps if steps is None else steps
        self.monkeypatch.setattr(eigensolve, "_ARNOLDI_STEPS", steps)
        frozen_before, module_before = dict(self.frozen), self.extractions
        result = None
        try:
            want = frozen_power_iteration_complex(A, steps, seed, self.frozen)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as raised:
                self.solver(A, seed=seed)
            assert str(raised.value) == str(exc)
            self.outcomes["stagnated"] += 1
        else:
            result = self.solver(A, seed=seed)
            assert result.lam == want.lam and type(result.lam) is complex
            assert result.right.dtype == want.right.dtype == complex
            assert result.right.view(float).tobytes() == want.right.view(float).tobytes()
            assert result.residual == want.residual
            how = [k for k in ("breakdown", "best") if self.frozen[k] > frozen_before[k]]
            self.outcomes[how[0] if how else "converged"] += 1
        assert (self.frozen["extractions"] - frozen_before["extractions"]
                == self.extractions - module_before)
        self.solves += 1
        return result


def companion(coeffs):
    # x^n + c_{n-1} x^{n-1} + ... + c_0 as its companion matrix
    n = len(coeffs)
    C = np.zeros((n, n))
    C[0] = -np.asarray(coeffs[::-1], dtype=float)
    C[1:, :-1] = np.eye(n - 1)
    return C


class TestPowerLoopBitIdentity:
    def test_2x2_helpers_on_random_and_edge_blocks(self):
        rng = np.random.default_rng(44)
        blocks = [rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-8, 9)
                  for _ in range(2000)]
        blocks += [np.zeros((2, 2)), np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
                   np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[-3.0, 0.0], [0.0, 3.0]]),
                   np.array([[1e-300, 0.0], [0.0, -1e-300]]),
                   np.array([[1e200, 1.0], [1.0, 1e200]])]
        for h in blocks:
            # the last block overflows to NaN: compare bits, not ==
            with np.errstate(over="ignore", invalid="ignore"):
                lams, want = eigen2d(h), frozen_eigen2d(h)
                vectors = [(eigvector2d(h, lam), frozen_eigvector2d(h, lam)) for lam in lams]
            assert all(type(lam) is complex for lam in lams)
            assert np.array(lams).tobytes() == np.array(want).tobytes()
            for got, frozen in vectors:
                assert got.view(float).tobytes() == frozen.view(float).tobytes()

    def test_nonsymmetric_matrices(self, monkeypatch):
        check = BitIdentityCheck(monkeypatch)
        rng = np.random.default_rng(40)
        for n in (2, 3, 4, 5, 6, 8, 11, 16, 23, 32, 40):
            A = rng.standard_normal((n, n))
            for steps in (1, 3000):
                check(A, seed=n, steps=steps)
                check(A.T, seed=n, steps=steps)
        # one step returns the warm start's pair as the best so far where its
        # residual is small enough, and stagnates where it is not
        assert check.outcomes["best"] > 0 and check.outcomes["stagnated"] > 0

    def test_symmetric_matrices(self, monkeypatch):
        check = BitIdentityCheck(monkeypatch)
        rng = np.random.default_rng(41)
        for n in (2, 3, 5, 9, 17, 40):
            B = rng.standard_normal((n, n))
            check((B + B.T) / 2, seed=n, steps=3000)

    def test_rotation_scale_pairs(self, monkeypatch):
        check = BitIdentityCheck(monkeypatch)
        check(np.array([[0.5, -1.0], [1.0, 0.5]]), seed=0)
        check(np.array([[0.0, -2.0], [2.0, 0.0]]), seed=0)
        for trial, lams in enumerate([[0.9 + 0.4j, 0.9 - 0.4j, 0.55, -0.3, 0.1],
                                      [1.1, 0.8 + 0.5j, 0.8 - 0.5j, 0.45, -0.2, 0.05],
                                      [-0.2 + 1.3j, -0.2 - 1.3j, 1.0, 0.7 + 0.1j,
                                       0.7 - 0.1j, 0.3]]):
            A = random_matrix_with_spectrum(lams, seed=60 + trial)
            check(A, seed=trial)
            check(np.asfortranarray(A), seed=trial)

    def test_companion_matrices(self, monkeypatch):
        check = BitIdentityCheck(monkeypatch)
        theta = 0.3
        check(np.array([[2.0 * math.cos(theta), -1.0], [1.0, 0.0]]), seed=3)
        rng = np.random.default_rng(42)
        for n in (3, 5, 8, 13):
            check(companion(rng.uniform(-0.5, 0.5, size=n)), seed=n, steps=3000)

    def test_breakdown_and_stagnation_paths(self, monkeypatch):
        check = BitIdentityCheck(monkeypatch)
        # a real dominant eigenvalue the warm start already found: the first
        # Arnoldi step breaks down and returns the warm-start vector
        check(np.diag([3.0, 2.0, 1.0]), seed=1)
        check(np.eye(4), seed=2)
        check(np.array([[2.0, 1.0], [0.0, 1.0]]), seed=0)
        # rank one: the warm start lands on the dense vector u in one step, so
        # the breakdown normalizes the warm start's own (strided) vector
        rng = np.random.default_rng(43)
        for n in (8, 40):
            u, w = rng.standard_normal(n), rng.standard_normal(n)
            check(np.outer(u, u) / (u @ u), seed=n)
            check(np.outer(u, w) / abs(u @ w), seed=n)
        # nilpotent and zero matrices: the power step vanishes
        check(np.array([[0.0, 1.0], [0.0, 0.0]]), seed=0)
        check(np.zeros((3, 3)), seed=0)
        check(np.array([[4.0]]), seed=0)
        # too few steps for a slow pair: the stagnation text, best residual and all
        A = random_matrix_with_spectrum([0.9 + 0.4j, 0.9 - 0.4j, 0.95, 0.2], seed=5)
        for steps in (1, 2, 7):
            check(A, seed=0, steps=steps)
        assert check.outcomes["breakdown"] >= 6 and check.outcomes["stagnated"] == 3

    @pytest.mark.parametrize("experiment, seed, params", [
        ("softplus_edmd", 5, {"n_eig": 3, "grid_h": 0.05}),
        ("lin5d_check", 0, {}),
    ])
    def test_bench_runs(self, tmp_path, monkeypatch, experiment, seed, params):
        # every solve of the benchmark's runs, on the matrices they build: K in
        # C order, K.T as an F-order view, and the deflated working matrices,
        # strided views of a complex array
        check = BitIdentityCheck(monkeypatch)
        monkeypatch.setattr(eigensolve, "power_iteration_complex", check)
        run(ExperimentConfig(experiment, seed=seed, out_dir=str(tmp_path), params=params))
        assert check.solves == {"softplus_edmd": 4, "lin5d_check": 10}[experiment]
        assert check.outcomes["stagnated"] == 0
