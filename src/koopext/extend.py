"""Monomial eigenfunction construction with certified error control.

Given eigenpairs of a fitted Koopman matrix (or analytic oracles), this module
builds product/power eigenfunction expressions, measures their trajectory
error on a grid, evaluates the two closed-form error bounds (one against
eigenvector error, one against integration error), and runs the extension
loops that emit powers until the certified budget is exhausted. A log-space
PCA filter identifies how many independent directions a family of
eigenfunctions really spans.

Bound conventions: eigenvector weights are used at unit 2-norm, which is the
normalization both bound derivations assume, and complex eigenvalues enter
the bound arithmetic through their modulus.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConfigurationError,
    ContractViolationError,
    EmptySupportError,
    EvalGrid,
    FlowedGrid,
    masked_grid_norm,
    principal_pow,
    singular_mask,
    tag_nonfinite,
)
from .dictionary import Dictionary
from .eigensolve import _deflation_rounds
from .regression import KoopmanModel

__all__ = [
    "DictionaryEigenfunction",
    "EigenfunctionExpr",
    "ErrorReport",
    "Extension",
    "ExtensionResult",
    "expr_from_weights",
    "expr_from_analytic",
    "monomial",
    "PowerErrors",
    "trajectory_error",
    "trajectory_error_detailed",
    "normalize_to_grid",
    "bound_constant_CFG",
    "discrete_bound",
    "continuous_bound",
    "extend_discrete",
    "extend_continuous",
    "iterative_koopman_eigensolver",
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
    name: str = ""

    def eval(self, points: np.ndarray) -> np.ndarray:
        feats = self.dictionary.eval(points)
        return feats @ np.asarray(self.weights, dtype=complex)


def _eval_base(base, points: np.ndarray) -> np.ndarray:
    vals = base.eval(points)
    return np.asarray(vals, dtype=complex)


def _pow_values(vals: np.ndarray, m: float) -> np.ndarray:
    """vals**m with singular tagging: integer powers by numpy's repeated
    multiplication, fractional powers through the principal branch; singular
    inputs stay singular, and zeros under a nonpositive exponent become
    singular tags."""
    out_singular = singular_mask(vals)
    zero = (vals == 0) & ~out_singular
    if float(m).is_integer():
        m_int = int(m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.where(zero & (m_int <= 0), np.nan, vals) ** m_int
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
        on n points, one array per factor in factor order."""
        out = np.full(n, self.scale, dtype=complex)
        for vals, (_, m) in zip(base_values, self.factors, strict=True):
            out = out * _pow_values(vals, m)
        return tag_nonfinite(out)

    def step_multiplier(self, dt: float | None) -> complex:
        """The factor phi picks up over one step of the given length."""
        if self.eigenvalue_kind == "multiplier":
            return self.eigenvalue
        if dt is None:
            raise ConfigurationError(
                "a generator eigenvalue needs the step length; pass a FlowMap"
            )
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


def _as_factors(phi) -> tuple:
    if isinstance(phi, EigenfunctionExpr):
        return phi.factors
    return ((phi, 1.0),)


def _kind_of(phi) -> str:
    if isinstance(phi, EigenfunctionExpr):
        return phi.eigenvalue_kind
    return "generator"  # bare analytic eigenfunction


def monomial(phi1, p: float, phi2=None, q: float = 0.0) -> EigenfunctionExpr:
    """phi1^p (optionally times phi2^q) with the combined eigenvalue."""
    kind = _kind_of(phi1)
    factors = tuple((base, m * p) for base, m in _as_factors(phi1))
    scale1 = getattr(phi1, "scale", 1.0 + 0j)
    scale = principal_pow(complex(scale1), float(p)) if scale1 != 1.0 else 1.0 + 0j
    if phi2 is not None and q != 0.0:
        if _kind_of(phi2) != kind:
            raise ConfigurationError(
                "cannot mix fitted (multiplier) and analytic (generator) factors"
            )
        factors += tuple((base, m * q) for base, m in _as_factors(phi2))
        scale2 = getattr(phi2, "scale", 1.0 + 0j)
        if scale2 != 1.0:
            scale *= principal_pow(complex(scale2), float(q))
    factors = tuple((b, m) for b, m in factors if m != 0.0)
    return EigenfunctionExpr(
        factors=factors,
        eigenvalue=_combined_eigenvalue(factors, kind),
        eigenvalue_kind=kind,
        scale=complex(scale),
    )


# ---------------------------------------------------------------------------
# Error metrics.


def _residual_error(vx: np.ndarray, vy: np.ndarray, lam_step: complex, p: float):
    norm, excluded = masked_grid_norm(vy - lam_step * vx)
    return float(norm ** (1.0 / p)), excluded


def trajectory_error_detailed(expr: EigenfunctionExpr, flowed: FlowedGrid, p: float):
    """Eigen-relation residual |phi(F x) - lambda_step phi(x)| in the grid
    norm, raised to 1/p. Returns (value, number of singular points excluded).

    For fitted expressions lambda_step is the expression's eigenvalue; for
    analytic (generator) ones it is exp(lambda dt) with the flowed grid's dt.
    """
    vx = expr.eval(flowed.points)
    vy = expr.eval(flowed.image)
    return _residual_error(vx, vy, expr.step_multiplier(flowed.dt), p)


def trajectory_error(expr: EigenfunctionExpr, flowed: FlowedGrid, p: float) -> float:
    return trajectory_error_detailed(expr, flowed, p)[0]


class PowerErrors:
    """Trajectory errors of the powers phi^p on one flowed grid.

    The base factors of phi are evaluated once on the grid points and once on
    their images; each power then costs only the elementwise combine step.
    Called with p, it returns (monomial(phi, p), error, excluded points), the
    same numbers trajectory_error_detailed gives for that monomial.
    """

    def __init__(self, phi, flowed: FlowedGrid):
        self.phi = phi
        self.flowed = flowed
        # monomial drops zero exponents, so only the others line up with its factors
        bases = [base for base, m in _as_factors(phi) if m != 0.0]
        self._vx = [_eval_base(base, flowed.points) for base in bases]
        self._vy = [_eval_base(base, flowed.image) for base in bases]

    def __call__(self, p: float) -> tuple[EigenfunctionExpr, float, int]:
        expr = monomial(self.phi, p)
        n = len(self.flowed)
        err, excluded = _residual_error(
            expr.combine(self._vx, n), expr.combine(self._vy, n),
            expr.step_multiplier(self.flowed.dt), p,
        )
        return expr, err, excluded


def normalize_to_grid(expr: EigenfunctionExpr, grid: EvalGrid) -> EigenfunctionExpr:
    """Rescale an expression to unit grid norm (singular points excluded)."""
    norm, _ = masked_grid_norm(expr.eval(grid.points))
    if norm == 0:
        raise EmptySupportError("cannot normalize an identically zero field")
    return replace(expr, scale=expr.scale / norm)


# ---------------------------------------------------------------------------
# Bounds.


def bound_constant_CFG(dic: Dictionary, flowed: FlowedGrid, lam: complex, p: int) -> float:
    """Grid norm of |Psi(F x) - lam Psi(x)| times the degree-(p-1) geometric
    sum in |Psi(F x)|, |Psi(x)| and |lam|."""
    if p < 1:
        raise ConfigurationError("p must be >= 1")
    PX = dic.eval(flowed.points)
    PF = dic.eval(flowed.image)
    return _cfg_from_features(PX, PF, lam, p)


def _cfg_from_features(PX: np.ndarray, PF: np.ndarray, lam: complex, p: int) -> float:
    lam_abs = abs(lam)
    resid = np.linalg.norm(PF - complex(lam) * PX.astype(complex), axis=1)
    nx = np.linalg.norm(PX, axis=1)
    nf = np.linalg.norm(PF, axis=1)
    geom = sum(nf ** (p - 1 - i) * nx**i * lam_abs**i for i in range(p))
    return float(np.sqrt(np.mean((resid * geom) ** 2)))


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


def _continuous_budget(lam_abs: float, M: float, L: float, eps: float, p: int) -> float:
    """Largest integration error still certifying trajectory error <= eps at power p."""
    lm = lam_abs * M
    return ((eps**p + lm**p) ** (1.0 / p) - lm) / L


# ---------------------------------------------------------------------------
# Reports and extension loops.


@dataclass(frozen=True)
class ErrorReport:
    power: int
    trajectory_error: float
    bound: float
    excluded_points: int = 0


@dataclass(frozen=True, eq=False)
class Extension:
    power: int
    expr: EigenfunctionExpr
    eigenvalue: complex
    report: ErrorReport


@dataclass(frozen=True, eq=False)
class ExtensionResult:
    extensions: tuple
    status: str

    def __len__(self) -> int:
        return len(self.extensions)

    @property
    def max_power(self) -> int:
        return max((e.power for e in self.extensions), default=0)


def _weights_of(eigenpair_or_weights) -> tuple[np.ndarray, complex]:
    """Accepts an Eigenpair carrying its left vector or a (weights, lam) tuple;
    eigenfunction weights are left eigenvectors of K."""
    ep = eigenpair_or_weights
    if isinstance(ep, tuple) and len(ep) == 2:
        return np.asarray(ep[0]), complex(ep[1])
    if getattr(ep, "left", None) is None:
        raise ConfigurationError(
            "the eigenpair has no left eigenvector; eigenfunction weights are left eigenvectors"
        )
    return np.asarray(ep.left), complex(ep.lam)


def extend_discrete(
    eigenpair,
    model: KoopmanModel,
    flowed: FlowedGrid,
    epsilon: float,
    delta_w_norm: float,
    p_max: int = P_MAX_DEFAULT,
) -> ExtensionResult:
    """Emit powers p = 1, 2, ... while the eigenvector-error budget holds:
    |dw| <= eps^p / C_FG(p, lambda). Each emitted power carries its certified
    bound and the measured trajectory error.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    w, lam = _weights_of(eigenpair)
    errors = PowerErrors(expr_from_weights(model, w, lam), flowed)
    PX = model.dict.eval(flowed.points)
    PF = model.dict.eval(flowed.image)
    out = []
    p = 1
    while p <= p_max:
        cfg = _cfg_from_features(PX, PF, lam, p)
        if cfg > 0 and delta_w_norm > epsilon**p / cfg:
            status = f"budget exceeded at p={p}"
            if p == 1:
                status = "empty: p=1 already violates the eigenvector budget"
            return ExtensionResult(tuple(out), status)
        expr, err, excl = errors(p)
        out.append(
            Extension(
                power=p,
                expr=expr,
                eigenvalue=expr.eigenvalue,
                report=ErrorReport(p, err, discrete_bound(delta_w_norm, cfg, p), excl),
            )
        )
        p += 1
    return ExtensionResult(tuple(out), f"budget never exceeded (capped at p_max={p_max})")


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
    """Emit powers p = 1, 2, ... while the integration-error budget holds:
    eps_G <= (1/L)((eps^p + (|lambda| M)^p)^(1/p) - |lambda| M).
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    w, lam = _weights_of(eigenpair)
    phi1 = expr_from_weights(model, w, lam)
    errors = PowerErrors(phi1, flowed) if measure_errors else None
    lam_abs = abs(lam)
    out = []
    p = 1
    while p <= p_max:
        if eps_G > _continuous_budget(lam_abs, M, L, epsilon, p):
            status = f"budget exceeded at p={p}"
            if p == 1:
                status = "empty: p=1 already violates the integration budget"
            return ExtensionResult(tuple(out), status)
        if errors is not None:
            expr, err, excl = errors(p)
        else:
            expr, err, excl = monomial(phi1, p), np.nan, 0
        out.append(
            Extension(
                power=p,
                expr=expr,
                eigenvalue=expr.eigenvalue,
                report=ErrorReport(
                    p, err, continuous_bound(lam_abs, M, L, eps_G, p), excl
                ),
            )
        )
        p += 1
    return ExtensionResult(tuple(out), f"budget never exceeded (capped at p_max={p_max})")


@dataclass(frozen=True, eq=False)
class PairExtension:
    eigenvalue: complex
    weights: np.ndarray
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
    if n < 0:
        raise ConfigurationError("n must be >= 0")
    if n > model.dim:
        raise ConfigurationError(f"asked for {n} eigenpairs of a {model.dim}-dim model")
    out: list[PairExtension] = []
    for right, left, _, conjugate in _deflation_rounds(model.K, n, seed, max_iter):
        lam, w_unit = right.lam, left.right
        result = extend_continuous((w_unit, lam), model, flowed, epsilon, eps_G, L, M, p_max=p_max)
        residual = max(right.residual, left.residual)
        out.append(PairExtension(lam, w_unit, result, residual))
        if conjugate:
            lam2, w2 = np.conj(lam), np.conj(w_unit)
            conj_exts = tuple(
                Extension(
                    power=e.power,
                    expr=monomial(expr_from_weights(model, w2, lam2), e.power),
                    eigenvalue=np.conj(e.eigenvalue),
                    report=e.report,
                )
                for e in result.extensions
            )
            out.append(PairExtension(lam2, w2, ExtensionResult(conj_exts, result.status),
                                     residual, conjugate_of=len(out) - 1))
    return out


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
                        "re_lambda_p": e.eigenvalue.real,
                        "im_lambda_p": e.eigenvalue.imag,
                        "trajectory_error": None
                        if np.isnan(e.report.trajectory_error)
                        else e.report.trajectory_error,
                        "bound": e.report.bound,
                        "excluded_points": e.report.excluded_points,
                    }
                    for e in pe.result.extensions
                ],
            }
        )
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
