"""Dense eigensolvers built around the power method: an Arnoldi-accelerated
power iteration, warm-started by plain power steps, that resolves
complex-conjugate dominant pairs through a two-column Krylov basis,
biorthogonal deflation for real non-Hermitian matrices, 2x2 closed-form
helpers, and a reference QR iteration used for cross-validation.

Determinism rules: seeded start vectors, eigenvalues ordered by descending
modulus (ties: descending real part, then positive imaginary part first),
and every eigenvector scaled so its largest-modulus entry is real positive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ConfigurationError, ConvergenceError, DomainError, NearDefectiveError,
                   _write_csv, _write_json)

__all__ = [
    "Eigenpair",
    "eigen2d",
    "eigvector2d",
    "power_iteration_complex",
    "deflate_spectrum",
    "qr_iteration",
    "quasi_triangular_eigenvalues",
    "write_spectrum_json",
    "write_eigenvectors_csv",
]


@dataclass(frozen=True)
class Eigenpair:
    """Eigenvalue with unit right eigenvector and, optionally, the left one.

    The pairs deflate_spectrum returns are biorthogonal: w^T v = 1 (plain
    transpose, no conjugation), the pairing the deflation update
    A - lambda v w^T requires.
    """

    lam: complex
    right: np.ndarray | None = None
    left: np.ndarray | None = None
    residual: float = np.nan

    def conjugate(self) -> "Eigenpair":
        return Eigenpair(
            lam=np.conj(self.lam),
            right=None if self.right is None else np.conj(self.right),
            left=None if self.left is None else np.conj(self.left),
            residual=self.residual,
        )


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Largest-modulus entry made real positive; deterministic tie-break (first)."""
    k = int(np.abs(v).argmax())
    pivot = v[k]
    if pivot == 0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def _eig_sort_key(lam: complex):
    return (-abs(lam), -lam.real, -lam.imag)


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a 1-D vector without its dispatch, bit for bit: the
    same contiguous ravel and the same BLAS dot calls, real and imaginary
    parts summed for a complex vector."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        xr, xi = x.real, x.imag
        return math.sqrt(xr.dot(xr) + xi.dot(xi))
    return math.sqrt(x.dot(x))


# stopping rules of _warm_start and power_iteration_complex (see their docstrings)
_POWER_TOL = 1e-12
_ARNOLDI_TOL = 1e-13
_WARM_START_ITERS = 500
_RESIDUAL_TOL = 1e-10


def _warm_start(A: np.ndarray, seed: int) -> np.ndarray:
    """Up to _WARM_START_ITERS plain power steps from a seeded Philox normal
    vector; returns the last unit iterate, or earlier the first one whose
    residual |A v - (v^T A v) v| is at most _POWER_TOL * |A|."""
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.standard_normal(A.shape[0])
    v /= _norm(v)
    tol = _POWER_TOL * max(np.linalg.norm(A), 1e-300)
    w = A @ v
    for _ in range(_WARM_START_ITERS):
        nw = _norm(w)
        if nw == 0:
            return _fix_phase(v).real
        v = w / nw
        w = A @ v
        if _norm(w - float(v @ w) * v) <= tol:
            break
    return _fix_phase(v.astype(complex)).real


def eigen2d(h: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues of a real 2x2 matrix by the sign-matched quadratic formula.

    Ordered by descending modulus; ties by descending real part, then the
    +imaginary member first.
    """
    (a, b), (c, d) = np.asarray(h, dtype=float).tolist()
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    if disc >= 0:
        s = math.sqrt(disc)
        big = 0.5 * (tr + math.copysign(s, tr))
        if big == 0.0:
            lams = (complex(0.0), complex(0.0))
        else:
            lams = (complex(big), complex(det / big))
    else:
        s = math.sqrt(-disc)
        lams = (complex(tr / 2, s / 2), complex(tr / 2, -s / 2))
    return tuple(sorted(lams, key=_eig_sort_key))


_EYE2 = np.eye(2)


def eigvector2d(h: np.ndarray, lam: complex) -> np.ndarray:
    """Unit eigenvector of a 2x2 matrix from the null space of h - lam I,
    using the larger-pivot row. At a double root with a rank-1 eigenspace
    this is the single eigenvector.
    """
    h = np.asarray(h, dtype=float)
    M = h.astype(complex) - lam * _EYE2
    scale = max(np.abs(h).max(), abs(lam), 1e-300)
    r0, r1 = _norm(M[0]), _norm(M[1])
    if max(r0, r1) <= 1e-14 * scale:
        # full eigenspace; any direction works
        return np.array([1.0 + 0j, 0.0 + 0j])
    row = M[0] if r0 >= r1 else M[1]
    v = np.array([-row[1], row[0]])
    return _fix_phase(v / _norm(v))


def _arnoldi_2col(A: np.ndarray, x: np.ndarray):
    """Two-column Arnoldi step with modified Gram-Schmidt.

    Returns (h, V) where V is an orthonormal (n, 2) basis of span{x, A x}
    and h = V^T A V is the projected 2x2 matrix. Raises on Krylov breakdown
    (second basis vector below 1e-14).
    """
    v1 = x / _norm(x)
    w = A @ v1
    h00 = v1 @ w
    w -= h00 * v1
    h10 = _norm(w)
    if h10 < 1e-14:
        raise ConvergenceError("Krylov breakdown: x is already an eigenvector")
    v2 = w / h10
    w2 = A @ v2
    h01 = v1 @ w2
    h11 = v2 @ w2
    V = np.empty((v1.shape[0], 2))
    V[:, 0] = v1
    V[:, 1] = v2
    h = np.array([[h00, h01], [h10, h11]])
    return h, V


def power_iteration_complex(A: np.ndarray, max_iter: int = 50000, seed: int = 0) -> Eigenpair:
    """Arnoldi-accelerated power iteration for real non-Hermitian matrices
    whose dominant eigenvalue is simple or a complex-conjugate pair.

    Warm-starts with 500 plain power steps (no convergence requirement),
    then repeats: orthonormalize the two-column Krylov basis of the current
    vector, take the larger-modulus eigenvalue of the projected 2x2 matrix,
    and lift its eigenvector. Stops once the relative eigenvalue change drops
    below 1e-13 and the residual is below 1e-10 * |A|. A matrix with a NaN or
    infinite entry, and a max_iter under 1, are refused before the warm start.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ConfigurationError("power_iteration_complex needs a square matrix")
    if not max_iter >= 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    bad = int(np.count_nonzero(~np.isfinite(A)))
    if bad:
        raise DomainError(f"power_iteration_complex needs a finite matrix; {bad} of its "
                          f"{A.size} entries are NaN or infinite")
    if n == 1:
        return Eigenpair(lam=complex(A[0, 0]), right=np.array([1.0 + 0j]), residual=0.0)
    tol = _RESIDUAL_TOL * max(np.linalg.norm(A), 1e-300)
    x = _warm_start(A, seed)
    lam_old = complex(np.inf)
    best: tuple[complex, np.ndarray, float] | None = None  # (lam, v, res), least res so far
    Ac = A.astype(complex)
    for _ in range(max_iter):
        try:
            h, V = _arnoldi_2col(A, x)
        except ConvergenceError:
            # hard breakdown: the vector is (numerically) a real eigenvector
            lam = float(x @ (A @ x) / (x @ x))
            v = _fix_phase((x / _norm(x)).astype(complex))
            res = _norm(A @ v - lam * v)
            return Eigenpair(lam=complex(lam), right=v, residual=res)
        lam_c = eigen2d(h)[0]
        w2 = eigvector2d(h, lam_c)
        v_c = V.astype(complex) @ w2
        v_c = _fix_phase(v_c / _norm(v_c))
        res_c = _norm(Ac @ v_c - lam_c * v_c)
        # the plain real candidate (h00, x), whose residual is exactly h10: a
        # near-degenerate second basis column (real dominant eigenvalue) hands
        # the result to it instead of amplifying basis noise. Its phase-fixed
        # vector is built only when it is kept or returned.
        res_r = float(abs(h[1, 0]))
        real = res_r < res_c
        lam, res = (complex(h[0, 0]), res_r) if real else (lam_c, res_c)
        done = abs(lam - lam_old) < _ARNOLDI_TOL * max(1.0, abs(lam)) and res <= tol
        if done or best is None or res < best[2]:
            v = _fix_phase(V[:, 0].astype(complex)) if real else v_c
            if done:
                return Eigenpair(lam=lam, right=v, residual=res)
            best = (lam, v, res)
        lam_old = lam
        # advance the underlying vector by a plain power step; the sequence
        # may rotate within a complex pair's invariant plane, which the
        # two-column extraction above resolves, but its dominant-subspace
        # alignment improves monotonically
        x_next = A @ x
        nx = _norm(x_next)
        if nx < 1e-300:
            break
        x = x_next / nx
    lam, v, res = best  # set by the first step, since max_iter >= 1
    if res <= tol:
        return Eigenpair(lam=lam, right=v, residual=res)
    raise ConvergenceError(
        f"complex power iteration stagnated after {max_iter} iterations "
        f"(best residual {res:.3e})"
    )


def _match_left(lam_right: complex, pair_left: Eigenpair) -> Eigenpair:
    """Pair a left eigenpair (computed from A^T) with the right one by
    eigenvalue proximity, conjugating when the solver landed on the partner."""
    lam_l = pair_left.lam
    tol = 1e-6 * max(1.0, abs(lam_right))
    if abs(lam_l - lam_right) <= tol:
        return pair_left
    if abs(np.conj(lam_l) - lam_right) <= tol:
        return pair_left.conjugate()
    raise ConvergenceError(
        f"left/right eigenvalue mismatch: {lam_l:.6g} vs {lam_right:.6g}"
    )


def _deflation_rounds(A: np.ndarray, n_pairs: int, seed: int, max_iter: int):
    """The deflation loop behind deflate_spectrum and the extension
    eigensolver. Per round: right pair from the working matrix, left pair
    from its transpose, w = left / (left^T v), A <- A - lambda v w^T; yields
    (right, left, w, conjugate). With Im(lambda) > 1e-6 the conjugate pair is
    deflated too and counts as the next pair, even past n_pairs, so complex
    eigenvalues of a real matrix come in pairs and the matrix stays real.
    """
    work = np.asarray(A, dtype=float).copy()
    i = 0
    while i < n_pairs:
        right = power_iteration_complex(work, seed=seed + i, max_iter=max_iter)
        left = power_iteration_complex(work.T, seed=seed + i, max_iter=max_iter)
        left = _match_left(right.lam, left)
        lam, v = right.lam, right.right
        s = left.right @ v
        if abs(s) < 1e-12:
            raise NearDefectiveError(
                f"eigenpair {i}: |w^T v| = {abs(s):.3e}, matrix is near defective"
            )
        w = left.right / s
        workc = work.astype(complex) - lam * np.outer(v, w)
        conjugate = lam.imag > 1e-6
        yield right, left, w, conjugate
        i += 1
        if conjugate:
            workc = workc - np.conj(lam) * np.outer(np.conj(v), np.conj(w))
            i += 1
        work = workc.real


def deflate_spectrum(A: np.ndarray, n_pairs: int, seed: int = 0) -> list[Eigenpair]:
    """Dominant eigenpairs of a real matrix by biorthogonal deflation
    (see _deflation_rounds); each carries its biorthogonal left vector and
    the residual of its right pair."""
    n = np.shape(A)[0]
    if not 1 <= n_pairs <= n:
        raise ConfigurationError(f"asked for {n_pairs} eigenpairs of a {n}x{n} matrix")
    out: list[Eigenpair] = []
    for right, _, w, conjugate in _deflation_rounds(A, n_pairs, seed, max_iter=50000):
        out.append(Eigenpair(lam=right.lam, right=right.right, left=w, residual=right.residual))
        if conjugate:
            out.append(out[-1].conjugate())
    return out


def qr_iteration(A: np.ndarray, n_steps: int) -> np.ndarray:
    """n unshifted QR similarity steps, A <- R Q; eigenvalues are preserved.

    Serves as the independent cross-check oracle for deflate_spectrum.
    """
    work = np.asarray(A, dtype=float).copy()
    for _ in range(n_steps):
        Q, R = np.linalg.qr(work)
        work = R @ Q
    return work


def quasi_triangular_eigenvalues(T: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (nearly) quasi-triangular matrix by scanning the
    subdiagonal for 2x2 blocks (entries above 1e-8 times the largest entry),
    solved with eigen2d."""
    T = np.asarray(T, dtype=float)
    n = T.shape[0]
    scale = max(np.abs(T).max(), 1e-300)
    lams: list[complex] = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 1e-8 * scale:
            lams.extend(eigen2d(T[i : i + 2, i : i + 2]))
            i += 2
        else:
            lams.append(complex(T[i, i]))
            i += 1
    return np.asarray(sorted(lams, key=_eig_sort_key))


def write_spectrum_json(path, pairs: list[Eigenpair]) -> None:
    rows = [
        {
            "index": i,
            "re": p.lam.real,
            "im": p.lam.imag,
            "residual": None if np.isnan(p.residual) else p.residual,
        }
        for i, p in enumerate(pairs)
    ]
    _write_json(path, rows, sort_keys=False)


def write_eigenvectors_csv(path_stem, pairs: list[Eigenpair]) -> None:
    """Right/left eigenvectors as <stem>_right.csv and <stem>_left.csv,
    one eigenvector per column, real and imaginary blocks stacked."""
    for side in ("right", "left"):
        vecs = [getattr(p, side) for p in pairs if getattr(p, side) is not None]
        if not vecs:
            continue
        mat = np.column_stack(vecs)
        stacked = np.vstack([mat.real, mat.imag])
        _write_csv(f"{path_stem}_{side}.csv", [], stacked)
