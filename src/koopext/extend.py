"""Monomial eigenfunction construction with certified error control.

Given eigenpairs of a fitted Koopman matrix (or analytic oracles), this module
builds product/power eigenfunction expressions, measures the trajectory
error of their powers on a grid (PowerErrors), evaluates the two closed-form
error bounds (one against eigenvector error, one against integration error),
and runs the certified extension loop that emits phi^p while the bound it
reports for phi^p stays <= epsilon. A log-space PCA filter identifies how
many independent directions a family of eigenfunctions really spans.

Bound conventions: extend_continuous uses eigenvector weights at unit 2-norm,
the normalization its bound assumes; extend_discrete uses them as given, the
weights whose distance from the true eigenvector its delta_w_norm states.
Complex eigenvalues enter the bound arithmetic through their modulus.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConfigurationError,
    ContractViolationError,
    EmptySupportError,
    EvalGrid,
    FlowedGrid,
    _write_json,
    masked_grid_norm,
    principal_pow,
    singular_mask,
    tag_nonfinite,
)
from .dictionary import Dictionary, feature_sup_M, spectral_norm_bound_L
from .dynamics import BenchmarkSystem, FlowMap, integration_error_sup
from .eigensolve import _deflation_rounds
from .regression import KoopmanModel

__all__ = [
    "DictionaryEigenfunction",
    "EigenfunctionExpr",
    "Extension",
    "ExtensionResult",
    "expr_from_weights",
    "expr_from_analytic",
    "monomial",
    "PowerErrors",
    "normalize_to_grid",
    "discrete_bound",
    "continuous_bound",
    "extend_discrete",
    "extend_continuous",
    "iterative_koopman_eigensolver",
    "certify_on_grid",
    "PairExtension",
    "principal_filter",
    "PrincipalComponents",
    "write_extension_report",
]

P_MAX_DEFAULT = 64


@dataclass(frozen=True, eq=False)
class DictionaryEigenfunction:
    """phi(x) = w^T Psi(x) for a weight vector over a dictionary."""

    dictionary: Dictionary
    weights: np.ndarray
    eigenvalue: complex

    def eval(self, points: np.ndarray) -> np.ndarray:
        feats = self.dictionary.eval(points)
        return feats @ np.asarray(self.weights, dtype=complex)


def _base_values(vals) -> tuple:
    """(values as complex, singular mask, zero mask) of one base
    eigenfunction on a point set: what every power of it reads."""
    v = np.asarray(vals, dtype=complex)
    singular = singular_mask(v)
    return v, singular, (v == 0) & ~singular


def _eval_base(base, points: np.ndarray) -> tuple:
    return _base_values(base.eval(points))


def _pow_values(base: tuple, m: float) -> np.ndarray:
    """vals**m with singular tagging: integer powers by numpy's repeated
    multiplication, fractional powers through the principal branch; singular
    inputs stay singular, and zeros under a nonpositive exponent become
    singular tags."""
    vals, out_singular, zero = base
    if float(m).is_integer():
        m_int = int(m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if m_int > 0:
                # a NaN part survives every complex product, so the singular
                # entries come out non-finite and are tagged
                return tag_nonfinite(vals**m_int)
            out = np.where(zero, np.nan, vals) ** m_int
        if m_int == 0:
            out = np.where(zero, 1.0 + 0j, out)
    else:
        with np.errstate(invalid="ignore", over="ignore"):
            out = principal_pow(np.where(zero | out_singular, 1.0, vals), m)
        out = np.where(zero, 0.0 + 0j if m > 0 else np.nan, out)
    return tag_nonfinite(np.where(out_singular, np.nan, out))


@dataclass(frozen=True, eq=False)
class EigenfunctionExpr:
    """Product of powers of base eigenfunctions, with the combined eigenvalue.

    `eigenvalue_kind` distinguishes the two conventions in play:
    'multiplier' means the eigenvalue is the per-step factor of a fitted
    Koopman matrix, and products combine as lambda1^p lambda2^q through the
    principal branch; 'generator' means it is the continuous-time exponent of
    an analytic eigenfunction, and products combine additively as
    p lambda1 + q lambda2 (the same multiplicative law after exponentiation).

    Evaluating at a point where a base with nonpositive fractional or
    negative exponent vanishes yields a singular tag, not an exception, so
    grids can mask.
    """

    factors: tuple
    eigenvalue: complex
    eigenvalue_kind: str = "multiplier"
    scale: complex = 1.0 + 0j

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.combine([_eval_base(base, pts) for base, _ in self.factors], pts.shape[0])

    def combine(self, base_values, n: int) -> np.ndarray:
        """scale * prod_k v_k**m_k from the base values v_k already evaluated
        on n points (`_eval_base`, masks included), one per factor in factor
        order."""
        out = np.full(n, self.scale, dtype=complex)
        for vals, (_, m) in zip(base_values, self.factors, strict=True):
            out = out * _pow_values(vals, m)
        return tag_nonfinite(out)

    def step_multiplier(self, dt: float) -> complex:
        """The factor phi picks up over one step of the given length."""
        if self.eigenvalue_kind == "multiplier":
            return self.eigenvalue
        return complex(np.exp(self.eigenvalue * dt))


def _combined_eigenvalue(factors, kind: str) -> complex:
    if kind == "generator":
        return complex(sum(float(m) * complex(base.eigenvalue) for base, m in factors))
    lam = complex(1.0)
    for base, m in factors:
        lam *= principal_pow(complex(base.eigenvalue), float(m))
    return lam


def expr_from_weights(
    dic_or_model, weights, eigenvalue: complex, unit_norm: bool = True
) -> EigenfunctionExpr:
    """Wrap a left-eigenvector weight vector as a power-1 expression.

    Weights are scaled to unit 2-norm by default, the normalization the error
    bounds assume. The eigenvalue is the Koopman-matrix eigenvalue, i.e. a
    per-step multiplier.
    """
    dic = dic_or_model.dict if isinstance(dic_or_model, KoopmanModel) else dic_or_model
    w = np.asarray(weights, dtype=complex)
    if unit_norm:
        w = w / np.linalg.norm(w)
    base = DictionaryEigenfunction(dic, w, complex(eigenvalue))
    return EigenfunctionExpr(
        factors=((base, 1.0),),
        eigenvalue=complex(eigenvalue),
        eigenvalue_kind="multiplier",
    )


def expr_from_analytic(analytic) -> EigenfunctionExpr:
    """Wrap anything with .eval(points) and .eigenvalue as a power-1 expression.

    Analytic benchmark eigenfunctions carry continuous-time (generator)
    eigenvalues; the expression records that so error metrics convert through
    exp(lambda dt) at the flow's step.
    """
    return EigenfunctionExpr(
        factors=((analytic, 1.0),),
        eigenvalue=complex(analytic.eigenvalue),
        eigenvalue_kind="generator",
    )


def monomial(
    phi1: EigenfunctionExpr, p: float, phi2: EigenfunctionExpr | None = None, q: float = 0.0
) -> EigenfunctionExpr:
    """phi1^p (optionally times phi2^q) with the combined eigenvalue."""
    kind = phi1.eigenvalue_kind
    factors = tuple((base, m * p) for base, m in phi1.factors)
    scale = principal_pow(complex(phi1.scale), float(p)) if phi1.scale != 1.0 else 1.0 + 0j
    if phi2 is not None and q != 0.0:
        if phi2.eigenvalue_kind != kind:
            raise ConfigurationError(
                "cannot mix fitted (multiplier) and analytic (generator) factors"
            )
        factors += tuple((base, m * q) for base, m in phi2.factors)
        if phi2.scale != 1.0:
            scale *= principal_pow(complex(phi2.scale), float(q))
    factors = tuple((b, m) for b, m in factors if m != 0.0)
    return EigenfunctionExpr(
        factors=factors,
        eigenvalue=_combined_eigenvalue(factors, kind),
        eigenvalue_kind=kind,
        scale=complex(scale),
    )


# ---------------------------------------------------------------------------
# Error metrics.


class PowerErrors:
    """Trajectory errors of the powers phi^p on one flowed grid: the
    eigen-relation residual |phi^p(F x) - lambda_step phi^p(x)| in the grid
    norm, singular points excluded, raised to 1/p.

    lambda_step is the eigenvalue of phi^p for fitted expressions, and
    exp(lambda dt) with the flowed grid's dt for analytic (generator) ones.
    The base factors of phi are evaluated once on the grid points and once on
    their images, and so are their singular and zero masks; each power then
    costs only vals**m, the singular tag, the product and the residual norm.
    Called with p, it returns (monomial(phi, p), error, excluded points).
    """

    def __init__(self, phi: EigenfunctionExpr, flowed: FlowedGrid):
        self.phi = phi
        self.flowed = flowed
        # monomial drops zero exponents, so only the others line up with its factors
        bases = [base for base, m in phi.factors if m != 0.0]
        self._vx = [_eval_base(base, flowed.points) for base in bases]
        self._vy = [_eval_base(base, flowed.image) for base in bases]

    def __call__(self, p: float) -> tuple[EigenfunctionExpr, float, int]:
        expr = monomial(self.phi, p)
        n = len(self.flowed)
        vx, vy = expr.combine(self._vx, n), expr.combine(self._vy, n)
        norm, excluded = masked_grid_norm(vy - expr.step_multiplier(self.flowed.dt) * vx)
        return expr, float(norm ** (1.0 / p)), excluded


def normalize_to_grid(expr: EigenfunctionExpr, grid: EvalGrid) -> EigenfunctionExpr:
    """Rescale an expression to unit grid norm (singular points excluded)."""
    norm, _ = masked_grid_norm(expr.eval(grid.points))
    if norm == 0:
        raise EmptySupportError("cannot normalize an identically zero field")
    return replace(expr, scale=expr.scale / norm)


# ---------------------------------------------------------------------------
# Bounds.


class _BoundConstants:
    """C_FG(p) for every p >= 1: the grid norm of |Psi(F x) - lam Psi(x)|
    times the degree-(p-1) geometric sum in |Psi(F x)|, |Psi(x)| and |lam|.

    The features on the grid points and on their images, the residual norms
    |Psi(F x) - lam Psi(x)| and the feature norms |Psi(x)|, |Psi(F x)| are
    computed once, and each array power |Psi(F x)|**k, |Psi(x)|**k once, when
    a first p needs it. A power p then sums its p terms from those arrays.
    """

    def __init__(self, dic: Dictionary, flowed: FlowedGrid, lam: complex):
        PX = dic.eval(flowed.points)
        PF = dic.eval(flowed.image)
        self._lam_abs = abs(lam)
        self._resid = np.linalg.norm(PF - complex(lam) * PX.astype(complex), axis=1)
        self._nx = np.linalg.norm(PX, axis=1)
        self._nf = np.linalg.norm(PF, axis=1)
        self._powers: list[tuple[np.ndarray, np.ndarray]] = []  # (nf**k, nx**k) by k

    def __call__(self, p: int) -> float:
        if p < 1:
            raise ConfigurationError("p must be >= 1")
        for k in range(len(self._powers), p):
            self._powers.append((self._nf**k, self._nx**k))
        pw = self._powers
        geom = sum(pw[p - 1 - i][0] * pw[i][1] * self._lam_abs**i for i in range(p))
        return float(np.sqrt(np.mean((self._resid * geom) ** 2)))


def discrete_bound(delta_w_norm: float, C_FG: float, p: int) -> float:
    """Trajectory-error bound from eigenvector error: (C_FG * |dw|)^(1/p)."""
    if delta_w_norm < 0 or C_FG < 0:
        raise ConfigurationError("bound inputs must be nonnegative")
    return float((C_FG * delta_w_norm) ** (1.0 / p))


def continuous_bound(lam_abs: float, M: float, L: float, eps_G: float, p: int) -> float:
    """Trajectory-error bound from integration error:
    ((lam M + L eps_G)^p - (lam M)^p)^(1/p)."""
    if min(lam_abs, M, L, eps_G) < 0:
        raise ConfigurationError("bound inputs must be nonnegative")
    lm = lam_abs * M
    return float(((lm + L * eps_G) ** p - lm**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# The certified extension loop.


@dataclass(frozen=True, eq=False)
class Extension:
    """One emitted power phi^p: its expression (which carries the eigenvalue),
    the measured trajectory error (nan when not measured), the certified
    bound, and the number of singular grid points the error excluded."""

    power: int
    expr: EigenfunctionExpr
    trajectory_error: float
    bound: float
    excluded_points: int


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    extensions: tuple
    status: str

    def __len__(self) -> int:
        return len(self.extensions)

    @property
    def max_power(self) -> int:
        return max((e.power for e in self.extensions), default=0)


def _extension_loop(phi1, flowed, bound_of, epsilon, budget_name, p_max, measure_errors):
    """Emit phi1^p for p = 1, ..., p_max while its certified bound
    bound_of(p) is <= epsilon; each emitted power carries that bound and, when
    measured, its trajectory error on the flowed grid."""
    if not epsilon > 0:  # NaN too; the curve loops pass math.inf
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    if p_max < 1:
        raise ConfigurationError(f"p_max must be >= 1, got {p_max}")
    errors = PowerErrors(phi1, flowed) if measure_errors else None
    out = []
    for p in range(1, p_max + 1):
        bound = bound_of(p)
        if not bound <= epsilon:
            status = f"budget exceeded at p={p}"
            if p == 1:
                status = f"empty: p=1 already violates the {budget_name} budget"
            return ExtensionResult(tuple(out), status)
        if errors is not None:
            expr, err, excl = errors(p)
        else:
            expr, err, excl = monomial(phi1, p), np.nan, 0
        out.append(Extension(p, expr, err, bound, excl))
    return ExtensionResult(tuple(out), f"budget never exceeded (capped at p_max={p_max})")


def extend_discrete(
    eigenpair,
    model: KoopmanModel,
    flowed: FlowedGrid,
    epsilon: float,
    delta_w_norm: float,
    p_max: int = P_MAX_DEFAULT,
) -> ExtensionResult:
    """Emit powers p = 1, 2, ... of the eigenfunction of eigenpair =
    (weights, lambda), the weights taken as given (not rescaled) at distance
    delta_w_norm from a left eigenvector of K, while the eigenvector-error
    bound discrete_bound(delta_w_norm, C_FG(p), p) is <= epsilon. Each
    emitted power carries that bound and the measured trajectory error.
    """
    phi1 = expr_from_weights(model, *eigenpair, unit_norm=False)
    cfg_of = _BoundConstants(model.dict, flowed, phi1.eigenvalue)
    return _extension_loop(
        phi1, flowed, lambda p: discrete_bound(delta_w_norm, cfg_of(p), p), epsilon,
        "eigenvector", p_max, True,
    )


def extend_continuous(
    eigenpair,
    model: KoopmanModel,
    flowed: FlowedGrid,
    epsilon: float,
    eps_G: float,
    L: float,
    M: float,
    p_max: int = P_MAX_DEFAULT,
    measure_errors: bool = True,
) -> ExtensionResult:
    """Emit powers p = 1, 2, ... of the eigenfunction of eigenpair =
    (weights, lambda) while the integration-error bound
    continuous_bound(|lambda|, M, L, eps_G, p) is <= epsilon.
    """
    phi1 = expr_from_weights(model, *eigenpair)
    lam_abs = abs(phi1.eigenvalue)
    return _extension_loop(
        phi1, flowed, lambda p: continuous_bound(lam_abs, M, L, eps_G, p), epsilon,
        "integration", p_max, measure_errors,
    )


@dataclass(frozen=True, eq=False)
class PairExtension:
    eigenvalue: complex
    result: ExtensionResult
    residual: float
    conjugate_of: int | None = None


def iterative_koopman_eigensolver(
    model: KoopmanModel,
    flowed: FlowedGrid,
    n: int,
    epsilon: float,
    eps_G: float,
    L: float,
    M: float,
    p_max: int = P_MAX_DEFAULT,
    seed: int = 0,
    max_iter: int = 50000,
) -> list[PairExtension]:
    """Deflation-driven extension of the n dominant eigenpairs of the model.

    Runs the deflation loop of eigensolve.deflate_spectrum; per round the
    unit-norm left vector defines the eigenfunction, the integration-error
    budget loop emits its certified powers, and the residual reported is the
    larger of the right and left ones. A conjugate partner (Im > 1e-6)
    inherits the conjugated extension list.
    """
    if not 1 <= n <= model.dim:
        raise ConfigurationError(f"asked for {n} eigenpairs of a {model.dim}-dim model")
    out: list[PairExtension] = []
    for right, left, _, conjugate in _deflation_rounds(model.K, n, seed, max_iter):
        lam, w_unit = right.lam, left.right
        result = extend_continuous((w_unit, lam), model, flowed, epsilon, eps_G, L, M, p_max=p_max)
        residual = max(right.residual, left.residual)
        out.append(PairExtension(lam, result, residual))
        if conjugate:
            lam2 = np.conj(lam)
            phi2 = expr_from_weights(model, np.conj(w_unit), lam2)
            conj_exts = tuple(replace(e, expr=monomial(phi2, e.power)) for e in result.extensions)
            out.append(PairExtension(lam2, ExtensionResult(conj_exts, result.status),
                                     residual, conjugate_of=len(out) - 1))
    return out


def certify_on_grid(
    model: KoopmanModel,
    system: BenchmarkSystem,
    grid: EvalGrid,
    n: int,
    epsilon: float,
    p_max: int,
    seed: int,
    max_iter: int = 50000,
) -> tuple[list[PairExtension], float, float, float]:
    """Certified powers of the n dominant eigenpairs of a model of `system`
    on `grid`: (pairs, eps_G, L, M).

    The grid is flowed over the model's dt by rk45 at rel_tol 1e-11 and
    abs_tol 1e-13; eps_G is that flow's worst gap from the closed-form flow,
    L and M the dictionary constants on the grid, and
    iterative_koopman_eigensolver runs on the rk45-flowed grid. A system
    without a closed-form flow has no eps_G to certify with and is refused,
    as is a system of another dimension than the model's states.
    """
    if model.dict.dim_in != system.dim:
        raise ConfigurationError(
            f"the model's dictionary takes {model.dict.dim_in}-dim states, but {system.id} "
            f"is {system.dim}-dim"
        )
    if system.field.exact_flow is None:
        raise ConfigurationError(
            f"{system.id} has no closed-form flow to measure the integration error "
            "eps_G against, so no bound can be certified for it"
        )
    rk = FlowedGrid.of(
        FlowMap(system.field, model.dt, method="rk45", rel_tol=1e-11, abs_tol=1e-13), grid
    )
    exact = FlowedGrid.of(FlowMap(system.field, model.dt, method="exact"), grid)
    eps_G = integration_error_sup(rk, exact)
    L = spectral_norm_bound_L(model.dict, grid)
    M = feature_sup_M(model.dict, grid)
    pairs = iterative_koopman_eigensolver(
        model, rk, n=n, epsilon=epsilon, eps_G=eps_G, L=L, M=M,
        p_max=p_max, seed=seed, max_iter=max_iter,
    )
    return pairs, eps_G, L, M


# ---------------------------------------------------------------------------
# Principal-direction filter on log-magnitude fields.


@dataclass(frozen=True, eq=False)
class PrincipalComponents:
    rank: int
    singular_values: np.ndarray


def principal_filter(log_fields) -> PrincipalComponents:
    """SVD of column-stacked log-magnitude fields, rows masked where any field
    is non-finite. The rank counts singular values above 1e-8 * sigma_1."""
    cols = [np.asarray(f, dtype=float).ravel() for f in log_fields]
    if not cols:
        raise ContractViolationError("need at least one field")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ContractViolationError("all fields must share the grid")
    L = np.column_stack(cols)
    kept = np.all(np.isfinite(L), axis=1)
    if not np.any(kept):
        raise EmptySupportError("every row carries a non-finite entry")
    s = np.linalg.svd(L[kept], compute_uv=False)
    rank = int(np.count_nonzero(s > 1e-8 * s[0])) if s[0] > 0 else 0
    return PrincipalComponents(rank=rank, singular_values=s)


def write_extension_report(path, pairs: list[PairExtension]) -> None:
    """Extension report JSON: per eigenpair, the certified powers with their
    eigenvalues, measured trajectory errors, bounds, and exclusion counts."""
    payload = []
    for idx, pe in enumerate(pairs):
        payload.append(
            {
                "index": idx,
                "re": pe.eigenvalue.real,
                "im": pe.eigenvalue.imag,
                "residual": pe.residual,
                "conjugate_of": pe.conjugate_of,
                "status": pe.result.status,
                "extensions": [
                    {
                        "p": e.power,
                        "re_lambda_p": e.expr.eigenvalue.real,
                        "im_lambda_p": e.expr.eigenvalue.imag,
                        "trajectory_error": None
                        if np.isnan(e.trajectory_error)
                        else e.trajectory_error,
                        "bound": e.bound,
                        "excluded_points": e.excluded_points,
                    }
                    for e in pe.result.extensions
                ],
            }
        )
    _write_json(path, payload, sort_keys=False)
