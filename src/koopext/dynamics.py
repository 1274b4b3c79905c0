"""Vector fields, flow maps, integrators, and the benchmark-system library.

Each benchmark ships with closed-form eigenfunctions of its Koopman operator
where they exist, so downstream computations can be checked against exact
oracles. The linear systems come from one builder (`_linear`). A conjugated
system, a simpler system seen through a change of coordinates, is derived
from that system by another (`_seen_through`): its field, flow, steady states,
and each eigenfunction composed with the inverse change. A vector field's rhs
maps states of shape (..., d), one state (d,) or a batch (n, d), to
derivatives of the same shape; eigenfunction evaluators map a batch (n, d) to
(n,). AnalyticEigenfunction.eval tags every singular evaluation (complex NaN),
never returning Inf.
"""
from __future__ import annotations

import bisect
import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import (
    DIVERGENCE_LIMIT,
    MAX_STEPS,
    _POSITIVE,
    _REQUIRED,
    ConfigurationError,
    DivergenceError,
    FlowedGrid,
    UnsupportedSystemError,
    _read_csv,
    _read_record,
    _write_csv,
    _write_json,
    tag_nonfinite,
)
from .eigensolve import eigentriplets

__all__ = [
    "VectorField",
    "FlowMap",
    "AnalyticEigenfunction",
    "BenchmarkSystem",
    "SnapshotSet",
    "integration_error_sup",
    "make_system",
    "sample_snapshots",
    "transform_snapshots",
    "unstable_manifold_sample",
    "dp45",
    "DenseOrbit",
    "numeric_jacobian",
    "softplus",
    "softplus_inv",
    "bistable_transform",
    "bistable_transform_inv",
    "lin5d_lift",
    "lin5d_base_flow",
    "write_snapshots",
    "read_snapshots",
]


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) tableau, used both adaptively (flows) and at fixed step
# (quadrature nodes for averaging). Batched: every stage acts on (n, d).

_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4


def _dp_combine(k, row, h, tmp):
    """h * (0 + c_0 k[j_0] + c_1 k[j_1] + ...) over the (c, j) pairs of `row`,
    accumulated in place in the order of a Python sum() that starts at 0, so
    the bits match that sum. `tmp` is scratch of the stages' shape."""
    (c, j), *rest = row
    acc = np.multiply(k[j], c)
    acc += 0
    for c, j in rest:
        acc += np.multiply(k[j], c, out=tmp)
    acc *= h
    return acc


# the (weight, stage) pairs of the error estimate and of each _DP_A row
# whose weight is nonzero, the weights Python floats, so that the sums of
# the single-trajectory driver stay Python floats
_DP_ERR_NZ = tuple((float(e), i) for i, e in enumerate(_DP_ERR) if e != 0.0)
_DP_A_NZ = tuple(tuple((a, j) for j, a in enumerate(row) if a != 0.0) for row in _DP_A)


def _dp_step(rhs, y, h, k0):
    """One first-same-as-last Dormand-Prince step from y, where k0 = rhs(y).

    Returns (y5, stages k). Stage 7 is evaluated at y5: _DP_A[6] holds the
    _DP_B5 weights. So k[6] = rhs(y5) is the next step's k0, and a step makes
    6 rhs calls. Zero weights are skipped: _DP_A[6]'s on k[1] would add only
    +-0 to a sum that `+= 0` made non-negative, so the bits are those of the
    full row whenever k[1] is finite.
    """
    k = [k0]
    tmp = np.empty_like(y)
    for row in _DP_A_NZ[1:]:
        yi = _dp_combine(k, row, h, tmp)
        yi += y
        k.append(rhs(yi))
    return yi, k


def _check_divergence(y, context: str):
    # one reduction: a NaN propagates through the max and fails the <=, as
    # does an infinite entry; an empty batch compares its initial 0
    if not np.max(np.abs(y), initial=0.0) <= DIVERGENCE_LIMIT:
        raise DivergenceError(f"state exceeded {DIVERGENCE_LIMIT:g} during {context}")


def dp45(rhs, y0: np.ndarray, t: float, rel_tol: float = 1e-8, abs_tol: float = 1e-10):
    """Adaptive Dormand-Prince integration of a batch of independent states.

    `y0` has shape (n, d); every row is advanced from time 0 to `t` along
    one step sequence, controlled by the worst scaled error over the batch.
    A row's bits therefore depend on the batch it is in (a row integrated
    alone takes other steps and can differ at the 1e-9 level), while a rerun
    of the same batch gives the same bits.

    The pair is first-same-as-last: an accepted step hands its 7th stage on
    as the next step's 1st, and a rejected step reuses its 1st stage, since y
    did not move. So every step attempt makes 6 new rhs calls, plus one at
    the start.
    """
    if not math.isfinite(t):  # h would stay inf and the loop never end
        raise ConfigurationError(f"t must be finite, got {t}")
    if t == 0.0:
        return y0.copy()
    y = np.array(y0, dtype=float)
    _check_divergence(y, "integration")
    sign = 1.0 if t > 0 else -1.0
    remaining = abs(t)
    h = remaining / 16.0
    signed_rhs = lambda u: sign * rhs(u)
    k0 = signed_rhs(y)
    while remaining > 0.0:
        h = min(h, remaining)
        y_new, k = _dp_step(signed_rhs, y, h, k0)
        err = _dp_combine(k, _DP_ERR_NZ, h, np.empty_like(y))
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        # fmax skips NaN rows; all NaN gives NaN (counted as 10), with no warning
        with np.errstate(invalid="ignore"):
            err_norm = float(np.fmax.reduce(np.sqrt(np.mean((err / scale) ** 2, axis=-1)),
                                            axis=None))
        if err_norm <= 1.0:
            y, k0 = y_new, k[6]
            remaining -= h
            _check_divergence(y, "integration")
        h = _next_step(h, err_norm, abs(t))
    return y


def _next_step(h: float, err_norm: float, span: float) -> float:
    """The step after a step h with scaled error err_norm, the one rule of
    both Dormand-Prince drivers: h times 0.9 err^(-1/5), the factor clipped
    to [0.2, 5]. A non-finite error counts as 10, and a step under 1e-14 of
    the span |t| is refused (DivergenceError)."""
    if not math.isfinite(err_norm):
        err_norm = 10.0
    factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
    h *= min(5.0, max(0.2, factor))
    if h < 1e-14 * span:
        raise DivergenceError("adaptive step collapsed; system too stiff here")
    return h


# Dormand-Prince 4th-order continuous extension (Shampine, Math. Comp. 46,
# 1986; Hairer, Norsett & Wanner, Solving ODEs I, II.6), SciPy's RK45
# interpolant: within a step from t0 of size h,
# y(t0 + x h) = y0 + h sum_j x^(j+1) sum_i _DP_P[i][j] k_i.
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
# the (weight, stage) pairs of each power's coefficient whose weight is nonzero
_DP_P_NZ = tuple(tuple((row[j], i) for i, row in enumerate(_DP_P) if row[j] != 0.0)
                 for j in range(4))


class DenseOrbit:
    """One trajectory of `_dp45_dense`: its states `y` (n, d) at the step ends
    `t` (n,), and between them the continuous extension of each step.

    orbit(t) takes a scalar or an (m,) array of times and returns (d,) or
    (d, m); at a step end it returns the stored state exactly. Past the last
    step end the last step's polynomial extrapolates. Each value is summed
    in Python floats, so it does not depend on the BLAS, and a time gives
    the same bits alone or in an array.
    """

    def __init__(self, t: list, y: list, k: list):
        self.t = np.array(t)
        self.y = np.array(y)
        self._t, self._y, self._k = t, y, k
        self._coeffs = {}  # step -> per coordinate, its 4 polynomial coefficients

    def _at(self, s: float) -> list:
        t = self._t
        j = min(max(bisect.bisect_right(t, s) - 1, 0), len(t) - 1)
        if t[j] == s:
            return self._y[j]
        j = min(j, len(t) - 2)
        if j not in self._coeffs:
            k = self._k[j]
            self._coeffs[j] = [[_weighted(k, col, i) for col in _DP_P_NZ]
                               for i in range(len(k[0]))]
        h = t[j + 1] - t[j]
        x = (s - t[j]) / h
        return [y + h * (x * (a + x * (b + x * (c + x * e))))
                for y, (a, b, c, e) in zip(self._y[j], self._coeffs[j])]

    def __call__(self, t):
        tt = np.asarray(t, dtype=float)
        if tt.ndim == 0:
            return np.array(self._at(float(tt)))
        values = [self._at(s) for s in tt.tolist()]
        return np.array(values, dtype=float).reshape(-1, self.y.shape[1]).T


def _weighted(k, row, i) -> float:
    """sum c k[j][i] over the (c, j) pairs of `row`, in Python floats."""
    acc = 0.0
    for c, j in row:
        acc += c * k[j][i]
    return acc


def _dp_step_floats(rhs, y: list, h: float, k0: list, rel_tol: float, abs_tol: float):
    """_dp_step on one state held as Python floats, with dp45's scaled RMS
    error: (y5, stages k, err_norm). `rhs` is called on a (d,) array."""
    d = len(y)
    k = [k0]
    for row in _DP_A_NZ[1:]:
        y5 = [y[i] + h * _weighted(k, row, i) for i in range(d)]
        k.append(rhs(np.array(y5)).tolist())
    sq = 0.0
    for i in range(d):
        r = h * _weighted(k, _DP_ERR_NZ, i) / (abs_tol + rel_tol * max(abs(y[i]), abs(y5[i])))
        sq += r * r
    return y5, k, math.sqrt(sq / d)


def _dp45_steps(rhs, y0, t: float, rel_tol: float, abs_tol: float):
    """Adaptive Dormand-Prince steps of the one state y0 (d,) from time 0 to t > 0.

    Yields (0.0, y0, None), then each accepted step's end time, end state and
    7 stages, all Python floats. The tableau, the error norm and the step
    rule are dp45's; `rhs` is called on a (d,) array once per stage, 6 times
    a step plus once at the start. No step calls the BLAS.

    Refuses a t that is not finite and positive (ConfigurationError), a
    state past the divergence guard and a collapsed step (DivergenceError).
    """
    if not 0.0 < t < math.inf:
        raise ConfigurationError(f"t must be finite and positive, got {t}")
    y = np.asarray(y0, dtype=float).tolist()

    def check(u):
        if not all(abs(v) <= DIVERGENCE_LIMIT for v in u):
            raise DivergenceError(f"state exceeded {DIVERGENCE_LIMIT:g} during integration")

    check(y)
    yield 0.0, y, None
    # dp45's first step, t / 16, can overflow the rhs; a step that does is
    # rejected. Each errstate spans one step: across a yield it leaks out.
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = rhs(np.array(y)).tolist()
    t_now, h = 0.0, t / 16.0
    while t_now < t:
        last = h >= t - t_now
        if last:
            h = t - t_now
        with np.errstate(over="ignore", invalid="ignore"):
            y_new, k, err_norm = _dp_step_floats(rhs, y, h, k0, rel_tol, abs_tol)
        if err_norm <= 1.0:
            check(y_new)
            t_now = t if last else t_now + h
            y, k0 = y_new, k[6]
            yield t_now, y, k
        h = _next_step(h, err_norm, t)


def _dp45_dense(rhs, y0, t: float, rel_tol: float, abs_tol: float, section=None):
    """The steps of `_dp45_steps` kept as one DenseOrbit. `section = (p0, n)`
    adds an event: the solve stops at the first upward crossing of
    g(u) = n . (u - p0), from g < 0 to g >= 0, after t = 0, located on the
    continuous extension by bisection. Returns (orbit, t_event), t_event
    None without a crossing before t.
    """
    steps = _dp45_steps(rhs, y0, t, rel_tol, abs_tol)
    _, y, _ = next(steps)
    ts, ys, ks = [0.0], [y], []
    if section is not None:
        p0, normal = (np.asarray(v, dtype=float).tolist() for v in section)

        def g(u) -> float:
            return sum(n * (a - b) for n, a, b in zip(normal, u, p0))

        g_prev = g(y)
    for t_now, y, k in steps:
        ts.append(t_now)
        ys.append(y)
        ks.append(k)
        if section is not None:
            g_now = g(y)
            if g_prev < 0.0 <= g_now:
                orbit = DenseOrbit(ts, ys, ks)
                lo, hi = ts[-2], t_now
                while lo < (mid := 0.5 * (lo + hi)) < hi:
                    if g(orbit(mid).tolist()) < 0.0:
                        lo = mid
                    else:
                        hi = mid
                return orbit, hi
            g_prev = g_now
    return DenseOrbit(ts, ys, ks), None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VectorField:
    """Right-hand side of x' = F(x): `rhs` maps states of shape (..., d) to
    derivatives of the same shape, so one state (d,) and a batch (n, d) go
    through the same formula, and rhs(u) has the bits of rhs(u[None])[0].

    `exact_flow(points, t)`, when present, is the closed-form time-t flow of
    (n, d) points used by FlowMap(method='exact').
    """

    dim: int
    rhs: Callable[[np.ndarray], np.ndarray]
    exact_flow: Callable[[np.ndarray, float], np.ndarray] | None = None


@dataclass(frozen=True)
class FlowMap:
    """The time-dt flow of a vector field under a fixed integration method.

    method 'exact' requires the field's closed-form solution; 'euler' needs a
    step that divides dt; 'rk45' is adaptive Dormand-Prince.
    """

    field: VectorField
    dt: float
    method: str = "rk45"
    step: float | None = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0 <= self.dt < math.inf:
            raise ConfigurationError(f"dt must be a finite nonnegative number, got {self.dt}")
        if self.method not in ("exact", "euler", "rk45"):
            raise ConfigurationError(f"unknown flow method {self.method!r}")
        if self.method == "exact" and self.field.exact_flow is None:
            raise ConfigurationError("this field has no closed-form flow")
        if self.method == "euler":
            if self.step is None or not 0 < self.step < math.inf:
                raise ConfigurationError(f"euler step must be finite and positive, got {self.step}")
            if self.dt > 0:
                ratio = self.dt / self.step
                if ratio > MAX_STEPS:
                    raise ConfigurationError(
                        f"euler flow of {ratio:.4g} steps (dt {self.dt} / step {self.step}) "
                        f"is over the {MAX_STEPS}-step cap"
                    )
                if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                    raise ConfigurationError(
                        f"euler step {self.step} does not divide dt {self.dt}"
                    )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        batch = np.atleast_2d(pts)
        out = self._flow_batch(batch)
        return out[0] if single else out

    def _flow_batch(self, pts: np.ndarray) -> np.ndarray:
        # a non-finite or too-large input has already diverged, whatever the method
        _check_divergence(pts, f"{self.method} flow")
        if self.dt == 0.0:
            return pts.copy()
        if self.method == "exact":
            out = self.field.exact_flow(pts, self.dt)
            _check_divergence(out, "exact flow")
            return out
        if self.method == "euler":
            n = int(round(self.dt / self.step))
            y = pts.copy()  # private, so each step adds in place
            for _ in range(n):
                y += self.step * self.field.rhs(y)
                _check_divergence(y, "euler flow")
            return y
        return dp45(self.field.rhs, pts, self.dt, self.rel_tol, self.abs_tol)


def integration_error_sup(numeric: FlowedGrid, exact: FlowedGrid) -> float:
    """Worst Euclidean gap between a numerical flow and the exact flow of one grid."""
    if numeric.dt != exact.dt:
        raise ConfigurationError("the two flowed grids must share dt")
    if not np.array_equal(numeric.points, exact.points):
        raise ConfigurationError("the two flowed grids must share their points")
    return float(np.max(np.linalg.norm(numeric.image - exact.image, axis=1)))


# ---------------------------------------------------------------------------
# Benchmark systems.


@dataclass(frozen=True)
class AnalyticEigenfunction:
    """Closed-form Koopman eigenfunction: phi(F^t x) = exp(lambda t) phi(x).

    `evaluator` is the bare formula from (n, d) states to (n,) values; `eval`,
    the one place that tags, returns them complex with each non-finite value
    (a singular point, an Inf or NaN coordinate) as SINGULAR.
    """

    eigenvalue: complex
    evaluator: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def eval(self, points: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            values = self.evaluator(np.atleast_2d(np.asarray(points, dtype=float)))
        return tag_nonfinite(values)


@dataclass(frozen=True)
class BenchmarkSystem:
    id: str
    field: VectorField
    steady_states: tuple
    analytic_eigenfunctions: tuple[AnalyticEigenfunction, ...] = ()

    @property
    def dim(self) -> int:
        return self.field.dim


def _as_points(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def _bracketed_root(f, lo: float, hi: float, xtol: float, rtol: float) -> float:
    """A root of f in [lo, hi], where f(lo) and f(hi) differ in sign, by the
    Illinois method: a secant step through the bracket's ends, with the value
    at an end halved whenever that end is kept twice running, and a bisection
    in its place when the secant point is not strictly inside or the last
    three steps each failed to halve the bracket. Returns the end with the
    smaller |f| once the bracket is narrower than xtol + rtol |x|, or a point
    where f is exactly 0. Raises ValueError, as brentq does, when the ends'
    signs agree."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    glo, ghi = flo, fhi  # the end values the secant uses
    moved, misses = None, 0
    while True:
        best = lo if abs(flo) < abs(fhi) else hi
        width = hi - lo
        if width < xtol + rtol * abs(best):
            return best
        x = hi - ghi * width / (ghi - glo) if misses < 3 else lo + 0.5 * width
        if not lo < x < hi:
            x = lo + 0.5 * width
            if not lo < x < hi:  # adjacent floats: the bracket cannot shrink
                return best
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo, flo, glo = x, fx, fx
            if moved == "lo":
                ghi *= 0.5
            moved = "lo"
        else:
            hi, fhi, ghi = x, fx, fx
            if moved == "hi":
                glo *= 0.5
            moved = "hi"
        misses = 0 if hi - lo <= 0.5 * width else misses + 1


def _cubic1d() -> BenchmarkSystem:
    a, b, c = -1.0, 0.0, 3.0
    roots = np.array([a, b, c])
    # residues of 1/((x-a)(x-b)(x-c)); they sum to zero
    res = np.array(
        [
            1.0 / ((a - b) * (a - c)),
            1.0 / ((b - a) * (b - c)),
            1.0 / ((c - a) * (c - b)),
        ]
    )
    lams = np.array([(a - b) * (a - c), (b - a) * (b - c), (c - a) * (c - b)])

    def rhs(x):
        return (x - a) * (x - b) * (x - c)

    def exact_flow(pts, t):
        # F(x(t)) = F(x0) + t for F = sum_k res_k log|x - root_k|, F' = 1/f,
        # solved in s = log|x - r|: r is the steady state the flow heads for,
        # or on an unbounded side heading out the one it leaves. F is smooth in
        # s and reaches every value, so the bracket runs from x0 up to r itself
        # (where e^s underflows) or out to |x - r| = DIVERGENCE_LIMIT
        out = np.empty_like(pts)
        for i, x0 in enumerate(pts[:, 0]):
            if t == 0 or np.any(x0 == roots):
                out[i, 0] = x0
                continue
            ahead = int(np.searchsorted(roots, x0)) - int(rhs(x0) * t < 0)
            j = min(max(ahead, 0), 2)
            r, sign = roots[j], math.copysign(1.0, x0 - roots[j])
            others, res_others = np.delete(roots, j), np.delete(res, j)

            def F(s):
                return res[j] * s + float(
                    np.dot(res_others, np.log(np.abs(r - others + sign * math.exp(s)))))

            s0 = math.log(abs(x0 - r))
            target = F(s0) + t
            end = math.log(math.ulp(0.0)) if ahead == j else math.log(DIVERGENCE_LIMIT)
            if (F(end) - target) * t < 0:  # target not reached within the bracket
                if ahead != j:
                    raise DivergenceError("cubic flow escaped to infinity in finite time")
                out[i, 0] = r  # closer to r than the least subnormal
                continue
            s = _bracketed_root(lambda s: F(s) - target, min(s0, end), max(s0, end),
                                xtol=1e-15, rtol=8.9e-16)
            out[i, 0] = r + sign * math.exp(s)
        return out

    def make_eig(idx: int):
        exps = lams[idx] * res

        def evaluator(pts):
            x = pts[:, 0]
            logmag = sum(e * np.log(np.abs(x - r)) for e, r in zip(exps, roots))
            return np.exp(logmag)

        return AnalyticEigenfunction(
            eigenvalue=complex(lams[idx]),
            evaluator=evaluator,
            name=f"phi{idx + 1}",
        )

    return BenchmarkSystem(
        id="cubic1d",
        field=VectorField(1, rhs, exact_flow),
        steady_states=(np.array([a]), np.array([b]), np.array([c])),
        analytic_eigenfunctions=tuple(make_eig(i) for i in range(3)),
    )


def _quad1d() -> BenchmarkSystem:
    a, b = 2.0, 3.0

    def rhs(x):
        return (x - a) * (x - b)

    def exact_flow(pts, t):
        x = pts[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = (x - a) / (x - b)
            ut = u * math.exp((a - b) * t)
            # u crossing 1 is the finite-time escape of the trajectory
            blown = (x != b) & np.isfinite(u) & ((u - 1.0) * (ut - 1.0) <= 0.0) & (u != ut)
            if np.any(blown):
                raise DivergenceError("quad1d trajectory escaped to infinity before dt")
            out = (a - b * ut) / (1.0 - ut)
        out = np.where(x == b, b, out)
        return out.reshape(-1, 1)

    # eigenvalue signs fixed by direct substitution into grad(phi) . F = lambda phi:
    # (x-a)/(x-b) carries a-b and its reciprocal b-a (the names keep the power 1)
    def ratio_eig(anchored_at_a: bool) -> AnalyticEigenfunction:
        num, den = (a, b) if anchored_at_a else (b, a)
        lam = (a - b) if anchored_at_a else (b - a)

        def evaluator(pts):
            x = pts[:, 0]
            return (x - num) / (x - den)

        return AnalyticEigenfunction(
            eigenvalue=complex(lam),
            evaluator=evaluator,
            name=f"phi_{'a' if anchored_at_a else 'b'}^1",
        )

    return BenchmarkSystem(
        id="quad1d",
        field=VectorField(1, rhs, exact_flow),
        steady_states=(np.array([a]), np.array([b])),
        analytic_eigenfunctions=(ratio_eig(True), ratio_eig(False)),
    )


# linear2d's matrix; softplus2d is linear2d seen through softplus, and
# softplus_edmd samples linear2d to fit it, so the two share this default
_LINEAR2D_A = ((-0.9, 0.1), (0.0, -0.8))

# lin5d's rates (a, b) in x1' = a x1, x2' = b (x2 - x1^2), b != 2a; read by
# _lin5d, lin5d_base_flow and the lin5d_check runner
_LIN5D_RATES = (-0.4, -1.0)


def _linear(system_id: str, A: np.ndarray, lefts) -> BenchmarkSystem:
    """x' = A x, with one eigenfunction phi_i = <w, x> per left eigenpair
    (lambda, w) in `lefts`, which holds a complete set. The flow is
    x P(t)^T with the propagator P(t) = e^{A t} = W^-1 e^{Lambda t} W, where
    the rows of W are the w (the eigenvector method; Moler & Van Loan, SIAM
    Rev. 45, 2003), computed once per t. It is sound while W is well
    conditioned: cond(W) is 2.4 for linear2d and 10.1 for lin5d."""
    lams = np.array([lam for lam, _ in lefts])
    W = np.array([w for _, w in lefts])

    @functools.cache
    def propagator(t):
        return np.linalg.solve(W, np.exp(lams * t)[:, None] * W)

    return BenchmarkSystem(
        id=system_id,
        field=VectorField(len(A), lambda x: x @ A.T, lambda pts, t: pts @ propagator(t).T),
        steady_states=(np.zeros(len(A)),),
        analytic_eigenfunctions=tuple(
            AnalyticEigenfunction(complex(lam), lambda pts, w=w: pts @ w, f"phi{i + 1}")
            for i, (lam, w) in enumerate(lefts)
        ),
    )


def _seen_through(base: BenchmarkSystem, system_id: str, to_base, from_base, push):
    """`base` in the coordinates z = from_base(x), where x = to_base(z); both
    maps act on (n, d) batches. The field is push(z, x, F(x)), the derivative
    of from_base at x applied to the base field F(x). The flow, the steady
    states and the eigenfunctions (phi o to_base, with phi's eigenvalue and
    name) follow by conjugation."""
    d = base.dim

    def rhs(z):
        # a single state goes through the batch path, so it has the batch's bits
        batch = np.reshape(z, (-1, d))
        x = to_base(batch)
        return push(batch, x, base.field.rhs(x)).reshape(np.shape(z))

    return BenchmarkSystem(
        id=system_id,
        field=VectorField(d, rhs, lambda z, t: from_base(base.field.exact_flow(to_base(z), t))),
        steady_states=tuple(from_base(np.reshape(s, (1, d)))[0] for s in base.steady_states),
        analytic_eigenfunctions=tuple(
            replace(eig, evaluator=lambda z, phi=eig.evaluator: phi(to_base(z)))
            for eig in base.analytic_eigenfunctions
        ),
    )


def _linear2d() -> BenchmarkSystem:
    A = np.array(_LINEAR2D_A)
    return _linear("linear2d", A, [(q.lam.real, q.left) for q in eigentriplets(A, 2)])


def softplus(x):
    """log(e^x + 1), applied coordinate-wise; maps R to (0, inf)."""
    return np.logaddexp(0.0, np.asarray(x, dtype=float))


def softplus_inv(y):
    """log(e^y - 1) for y > 0, NaN elsewhere; stable for large and small y."""
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.where(y > 30.0, y, np.log(np.expm1(np.where(y > 0, y, np.nan))))
    return out


def _softplus2d() -> BenchmarkSystem:
    # d softplus(x) / dx = 1 - e^-z at z = softplus(x)
    return _seen_through(_linear2d(), "softplus2d", softplus_inv, softplus,
                         lambda z, x, v: (1.0 - np.exp(-z)) * v)


def _lin5d() -> BenchmarkSystem:
    a, b = _LIN5D_RATES
    A = np.array(
        [
            [a, 0, 0, 0, 0],
            [0, b, -b, 0, 0],
            [0, 0, 2 * a, 0, 0],
            [0, 0, 0, a + b, -b],
            [0, 0, 0, 0, 3 * a],
        ],
        dtype=float,
    )
    r = (2 * a - b) / b
    lefts = [
        (a, np.array([1.0, 0, 0, 0, 0])),
        (2 * a, np.array([0.0, 0, 1, 0, 0])),
        (3 * a, np.array([0.0, 0, 0, 0, 1])),
        (b, np.array([0.0, r, 1, 0, 0])),
        (a + b, np.array([0.0, 0, 0, r, 1])),
    ]
    return _linear("lin5d", A, lefts)


def lin5d_lift(x2d: np.ndarray) -> np.ndarray:
    """Lift planar states (x1, x2) to the observables (x1, x2, x1^2, x1 x2, x1^3)."""
    p = _as_points(x2d)
    x1, x2 = p[:, 0], p[:, 1]
    return np.column_stack([x1, x2, x1**2, x1 * x2, x1**3])


def lin5d_base_flow(x2d: np.ndarray, t: float) -> np.ndarray:
    """Closed-form flow of x1' = a x1, x2' = b (x2 - x1^2) at lin5d's rates,
    the planar system that `lin5d_lift` turns into lin5d."""
    a, b = _LIN5D_RATES
    p = _as_points(x2d)
    x1, x2 = p[:, 0], p[:, 1]
    c = b * x1**2 / (b - 2 * a)
    x1t = x1 * math.exp(a * t)
    x2t = (x2 - c) * math.exp(b * t) + c * math.exp(2 * a * t)
    return np.column_stack([x1t, x2t])


# The polar benchmark's two eigenfunctions in (r, theta), shared with
# phase.polar_eigenfunctions. Singular points come out non-finite; the callers tag.


def _polar_twist(r, den, mu: float, alpha: float):
    """(alpha / sqrt(mu)) log((sqrt(mu) + r) / den), the radial part of the
    eigenfunction angle: den = r for phi_lc, sqrt(mu - r^2) for phi_ss."""
    smu = math.sqrt(mu)
    return (alpha / smu) * np.log((smu + r) / den)


def _polar_lc_values(r, theta, mu: float, alpha: float, C: float):
    """phi_lc = C |mu - r^2| / r^2 exp(i (theta - twist)); singular at r = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = C * np.abs(mu - r**2) / r**2
        return mag * np.exp(1j * (theta - _polar_twist(r, r, mu, alpha)))


def _polar_ss_values(r, theta, mu: float, alpha: float, C: float):
    """phi_ss = C r / sqrt(mu - r^2) exp(i (theta - twist)) on r < sqrt(mu),
    0 at r = 0; NaN on and beyond the cycle."""
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.where(r < math.sqrt(mu), mu - r**2, np.nan))
        mag = C * r / root
        return np.where(r == 0, 0.0, mag * np.exp(1j * (theta - _polar_twist(r, root, mu, alpha))))


def _polar_lc(mu=1.0, omega=1.0, alpha=1.0, C=1.0) -> BenchmarkSystem:
    mu, omega, alpha, C = float(mu), float(omega), float(alpha), float(C)
    if mu <= 0 or omega <= 0 or C <= 0:
        raise ConfigurationError("polarLC needs mu > 0, omega > 0, C > 0")
    smu = math.sqrt(mu)

    def rhs(p):
        x, y = p[..., 0], p[..., 1]
        r2 = x * x + y * y
        radial = mu - r2
        swirl = omega + alpha * (np.sqrt(r2) - smu)
        return np.stack([x * radial - y * swirl, y * radial + x * swirl], axis=-1)

    def exact_flow(p, t):
        x, y = p[:, 0], p[:, 1]
        r0 = np.hypot(x, y)
        th0 = np.arctan2(y, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = r0**2
            ut = np.where(u > 0, mu / (1.0 + (mu / u - 1.0) * math.exp(-2 * mu * t)), 0.0)
            rt = np.sqrt(ut)
            phase0 = np.where(r0 > 0, np.log((smu + r0) / r0), 0.0)
            phaset = np.where(rt > 0, np.log((smu + rt) / rt), 0.0)
            tht = th0 + omega * t + (alpha / smu) * (phaset - phase0)
        return np.column_stack([rt * np.cos(tht), rt * np.sin(tht)])

    lam_lc = complex(-2 * mu, omega)
    lam_ss = complex(mu, omega - alpha * smu)

    def eval_lc(p):
        x, y = p[:, 0], p[:, 1]
        return _polar_lc_values(np.hypot(x, y), np.arctan2(y, x), mu, alpha, C)

    def eval_ss(p):
        x, y = p[:, 0], p[:, 1]
        return _polar_ss_values(np.hypot(x, y), np.arctan2(y, x), mu, alpha, C)

    return BenchmarkSystem(
        id="polarLC",
        field=VectorField(2, rhs, exact_flow),
        steady_states=(np.zeros(2),),
        analytic_eigenfunctions=(
            AnalyticEigenfunction(lam_lc, eval_lc, "phi_lc"),
            AnalyticEigenfunction(lam_ss, eval_ss, "phi_ss"),
        ),
    )


def _vanderpol(mu=0.3) -> BenchmarkSystem:
    mu = float(mu)
    # for mu < 0 the limit cycle repels; mu = 0 is the harmonic center
    if not mu >= 0:
        raise ConfigurationError(f"vanderpol needs mu >= 0, got {mu}")

    def rhs(p):
        x, y = p[..., 0], p[..., 1]
        out = np.empty_like(p)
        out[..., 0] = y
        out[..., 1] = mu * (1.0 - x * x) * y - x
        return out

    return BenchmarkSystem(
        id="vanderpol",
        field=VectorField(2, rhs),
        steady_states=(np.zeros(2),),
    )


# saddle2d lives in z = expm1(R x / pi) of the linear saddle x' = diag(-1, 1.5) x
# rotated by 60 degrees; shared with the saddle_fields transversality check.
_SADDLE_THETA = math.radians(60.0)
_SADDLE_R = np.array([[math.cos(_SADDLE_THETA), -math.sin(_SADDLE_THETA)],
                      [math.sin(_SADDLE_THETA), math.cos(_SADDLE_THETA)]])


def _saddle_embed(x):
    """The saddle2d state z = expm1((x @ R^T) / pi) of linear coordinates x;
    inf past float range, which the flows' divergence guard refuses."""
    with np.errstate(over="ignore"):
        return np.expm1((x @ _SADDLE_R.T) / math.pi)


def _saddle_coords(z):
    """The linear coordinates x = pi log1p(z) R of saddle2d states z, the
    inverse of _saddle_embed; infinite or NaN where a coordinate of z is <= -1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return math.pi * (np.log1p(z) @ _SADDLE_R)


def _saddle2d() -> BenchmarkSystem:
    lams = (-1.0, 1.5)
    base = _linear("saddle2d_x", np.diag(lams), list(zip(lams, np.eye(2))))
    # z' = (z + 1) (x' R^T / pi) for z = expm1(x R^T / pi)
    return _seen_through(base, "saddle2d", _saddle_coords, _saddle_embed,
                         lambda z, x, v: (z + 1.0) * ((v @ _SADDLE_R.T) / math.pi))


def bistable_transform(y: np.ndarray) -> np.ndarray:
    """Diffeomorphism from (y1, y2) to the bistable system's x coordinates."""
    p = _as_points(y)
    y1, y2 = p[:, 0], p[:, 1]
    return np.column_stack(
        [2.0 * (y1 + y1**4 + 2.0 * y1**2 * y2 + y2**2), 2.0 * (y1**2 + y2)]
    )


def bistable_transform_inv(x: np.ndarray) -> np.ndarray:
    p = _as_points(x)
    u, v = p[:, 0] / 2.0, p[:, 1] / 2.0
    y1 = u - v**2
    y2 = -(u**2) + v + 2.0 * u * v**2 - v**4
    return np.column_stack([y1, y2])


def _bistable2d() -> BenchmarkSystem:
    # the y-system y1' = -(y1 - 1/4)(y1 + 1/4) y1, y2' = -y2, seen through
    # x = bistable_transform(y)
    def rhs_y(y):
        y1, y2 = y[..., 0], y[..., 1]
        return np.stack([-(y1 - 0.25) * (y1 + 0.25) * y1, -y2], axis=-1)

    def flow_y(y, t):
        y1, y2 = y[:, 0], y[:, 1]
        K, r = 1.0 / 16.0, 1.0 / 8.0
        u = y1**2
        with np.errstate(divide="ignore", invalid="ignore"):
            ut = np.where(u > 0, K / (1.0 + (K / u - 1.0) * math.exp(-r * t)), 0.0)
        return np.column_stack([np.sign(y1) * np.sqrt(ut), y2 * math.exp(-t)])

    def jac_h(y):
        y1, y2 = y[:, 0], y[:, 1]
        J = np.empty((y.shape[0], 2, 2))
        J[:, 0, 0] = 2.0 * (1.0 + 4.0 * y1**3 + 4.0 * y1 * y2)
        J[:, 0, 1] = 2.0 * (2.0 * y1**2 + 2.0 * y2)
        J[:, 1, 0] = 4.0 * y1
        J[:, 1, 1] = 2.0
        return J

    def power_eig(exponent: float, lam: float, name: str) -> AnalyticEigenfunction:
        def evaluator(y):
            y1 = y[:, 0]
            # (y1 - 1/4)(y1 + 1/4) / y1^2, the log-derivative eigenquantity
            return np.abs((y1**2 - 1.0 / 16.0) / y1**2) ** exponent

        return AnalyticEigenfunction(complex(lam), evaluator, name)

    base = BenchmarkSystem(
        id="bistable2d_y",
        field=VectorField(2, rhs_y, flow_y),
        steady_states=(np.array([0.0, 0.0]), np.array([0.25, 0.0]), np.array([-0.25, 0.0])),
        analytic_eigenfunctions=(
            power_eig(-0.5, 1.0 / 16.0, "phi1_unstable"),
            power_eig(1.0, -1.0 / 8.0, "phi1_node"),
            AnalyticEigenfunction(complex(-1.0), lambda y: np.abs(y[:, 1]), "phi2"),
        ),
    )
    return _seen_through(base, "bistable2d", bistable_transform_inv, bistable_transform,
                         lambda x, y, v: np.einsum("nij,nj->ni", jac_h(y), v))


def _duffing() -> BenchmarkSystem:
    delta, beta, alpha = 0.5, -1.0, 0.1

    def rhs(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([y, -delta * y - x * (beta + alpha * x * x)], axis=-1)

    xs = math.sqrt(-beta / alpha)
    return BenchmarkSystem(
        id="duffing",
        field=VectorField(2, rhs),
        steady_states=(np.zeros(2), np.array([xs, 0.0]), np.array([-xs, 0.0])),
    )


_FACTORIES = {
    "cubic1d": _cubic1d,
    "quad1d": _quad1d,
    "linear2d": _linear2d,
    "softplus2d": _softplus2d,
    "lin5d": _lin5d,
    "polarLC": _polar_lc,
    "vanderpol": _vanderpol,
    "saddle2d": _saddle2d,
    "bistable2d": _bistable2d,
    "duffing": _duffing,
}


def make_system(system_id: str, **params) -> BenchmarkSystem:
    """Construct a benchmark system by id.

    Available: polarLC(mu, omega, alpha, C) and vanderpol(mu), and cubic1d,
    quad1d, linear2d, softplus2d, lin5d, saddle2d, bistable2d and duffing,
    which take no parameters.
    """
    try:
        factory = _FACTORIES[system_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown system {system_id!r}; choose from {sorted(_FACTORIES)}"
        ) from None
    return factory(**params)


# ---------------------------------------------------------------------------
# Snapshot sampling.


@dataclass(frozen=True, eq=False)
class SnapshotSet:
    """Paired samples (x_k, F^dt(x_k)) plus the sampling interval."""

    x: np.ndarray
    y: np.ndarray
    dt: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x.shape != self.y.shape:
            raise ConfigurationError("x and y snapshot blocks must have equal shape")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def sample_snapshots(
    system: BenchmarkSystem,
    n_pairs: int,
    dt: float,
    box,
    seed: int,
    samples_per_traj: int = 2,
) -> SnapshotSet:
    """Deterministically sample snapshot pairs with initial conditions uniform
    on `box` = (lo, hi), which needs hi > lo and a finite hi - lo on every
    axis, flowed for a time dt > 0 exactly where the system has a closed-form
    flow and by rk45 otherwise (the method is recorded in metadata['method']).

    With samples_per_traj = s, each trajectory contributes s - 1 consecutive
    pairs, so (s - 1) must divide n_pairs. Divergent trajectories are dropped
    (not clipped) and counted in metadata['n_dropped']; replacements are drawn
    until n_pairs survive.
    """
    if n_pairs < 1:
        raise ConfigurationError("n_pairs must be >= 1")
    if samples_per_traj < 2:
        raise ConfigurationError("samples_per_traj must be >= 2")
    per_traj = samples_per_traj - 1
    if n_pairs % per_traj != 0:
        raise ConfigurationError(
            f"samples_per_traj - 1 = {per_traj} must divide n_pairs = {n_pairs}"
        )
    n_traj = n_pairs // per_traj
    if not dt > 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    lo, hi = (np.asarray(v, dtype=float) for v in box)
    named = f"lo = {tuple(lo.tolist())}, hi = {tuple(hi.tolist())}"
    if not np.all(lo < hi):
        raise ConfigurationError(f"sampling box needs hi > lo on every axis, got {named}")
    with np.errstate(over="ignore"):
        width = hi - lo
    if not np.all(np.isfinite(width)):
        # an infinite width would draw infinite initial states
        raise ConfigurationError(f"sampling box needs a finite width on every axis, got {named}")
    method = "exact" if system.field.exact_flow is not None else "rk45"
    fmap = FlowMap(system.field, dt, method=method)
    # counter-based generator: sampling order is reproducible however batched
    rng = np.random.Generator(np.random.Philox(seed))
    xs, ys = [], []
    collected = 0
    dropped = 0
    budget = 50 * n_traj

    def integrate_block(ics: np.ndarray):
        states = [ics]
        for _ in range(per_traj):
            states.append(fmap._flow_batch(states[-1]))
        stacked = np.stack(states)  # (s, n, d)
        return (
            stacked[:-1].transpose(1, 0, 2).reshape(-1, ics.shape[1]),
            stacked[1:].transpose(1, 0, 2).reshape(-1, ics.shape[1]),
        )

    while collected < n_traj and budget > 0:
        batch_n = n_traj - collected
        budget -= batch_n
        ics = lo + width * rng.random((batch_n, lo.shape[0]))
        try:
            bx, by = integrate_block(ics)
            xs.append(bx)
            ys.append(by)
            collected += batch_n
        except DivergenceError:
            # isolate the divergent trajectories one by one
            for row in ics:
                try:
                    bx, by = integrate_block(row[None, :])
                except DivergenceError:
                    dropped += 1
                    continue
                xs.append(bx)
                ys.append(by)
                collected += 1
    if collected < n_traj:
        raise DivergenceError("too many divergent trajectories in the sampling box")
    if dropped:
        warnings.warn(f"dropped {dropped} divergent trajectories while sampling")
    return SnapshotSet(
        x=np.vstack(xs)[: n_traj * per_traj],
        y=np.vstack(ys)[: n_traj * per_traj],
        dt=float(dt),
        metadata={
            "system": system.id,
            "seed": int(seed),
            "box": [lo.tolist(), hi.tolist()],
            "n_dropped": dropped,
            "samples_per_traj": samples_per_traj,
            "method": method,
        },
    )


def transform_snapshots(snaps: SnapshotSet, fn: Callable[[np.ndarray], np.ndarray]) -> SnapshotSet:
    """Push an entire snapshot set through a coordinate change."""
    meta = dict(snaps.metadata)
    meta["transformed"] = True
    return SnapshotSet(x=fn(snaps.x), y=fn(snaps.y), dt=snaps.dt, metadata=meta)


# ---------------------------------------------------------------------------


def numeric_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a batch map at a single state, with
    step 1e-6 (1 + |x_j|) along coordinate j: (m, d) for a map to m-vectors,
    the gradient (d,) for a scalar map."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.shape[0]):
        h = 1e-6 * (1.0 + abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((fn(xp[None, :])[0] - fn(xm[None, :])[0]) / (2 * h))
    return np.stack(cols, axis=-1)


def _find_saddle(system: BenchmarkSystem):
    for ss in system.steady_states:
        J = numeric_jacobian(system.field.rhs, np.asarray(ss, dtype=float))
        triplets = eigentriplets(J, len(J))
        pos = [q for q in triplets if q.lam.real > 1e-8]
        neg = [q for q in triplets if q.lam.real < -1e-8]
        if len(pos) == 1 and len(neg) == len(triplets) - 1:
            v = pos[0].right.real
            v = v / np.linalg.norm(v)
            k = int(np.flatnonzero(np.abs(v) > 1e-12)[0])
            if v[k] < 0:
                v = -v
            return np.asarray(ss, dtype=float), pos[0].lam.real, v
    raise UnsupportedSystemError(f"{system.id} has no saddle with a 1D unstable manifold")


def _trace_branch(system: BenchmarkSystem, seed_pt: np.ndarray, window_lo, window_hi, ds: float):
    """Polyline along one unstable-manifold branch, cropped at first window exit."""
    lo, hi = window_lo.tolist(), window_hi.tolist()

    def inside(p):
        # on Python floats: two numpy reductions per point cost more than the test
        return all(a <= v <= b for a, v, b in zip(lo, p, hi))

    rhs = system.field.rhs
    pts = [seed_pt.copy()]
    x = seed_pt.copy()
    horizon, chunk, t_used = 2000.0, 1.0, 0.0
    while t_used < horizon:
        orbit, _ = _dp45_dense(rhs, x, chunk, 1e-10, 1e-12)
        # walk the dense solution in arclength increments of roughly ds
        t_local = 0.0
        while t_local < chunk:
            speed = math.hypot(*rhs(x).tolist())
            if speed < 1e-14:
                return np.asarray(pts)
            t_local = min(t_local + ds / speed, chunk)
            x = orbit(t_local)
            u = x.tolist()
            if not inside(u):
                return np.asarray(pts)
            if math.hypot(*u) > DIVERGENCE_LIMIT:
                raise DivergenceError("unstable manifold escaped the divergence guard")
            pts.append(x)
        t_used += chunk
    return np.asarray(pts)


def _resample_polyline(pts: np.ndarray, n: int) -> np.ndarray:
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], n)
    out = np.empty((n, pts.shape[1]))
    for j in range(pts.shape[1]):
        out[:, j] = np.interp(targets, s, pts[:, j])
    return out


def unstable_manifold_sample(system: BenchmarkSystem, n: int, window) -> np.ndarray:
    """Sample the saddle's 1D unstable manifold, resampled by arclength.

    Both branches are traced by forward integration from the saddle offset by
    +-1e-6 along the unstable eigenvector and cropped at the first exit from
    `window`; the returned polyline runs from the far end of the negative
    branch, through the saddle, to the far end of the positive branch. n = 1
    returns the positive-branch seed point.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    saddle, _, v_u = _find_saddle(system)
    lo, hi = (np.asarray(v, dtype=float) for v in window)
    delta = 1e-6
    seed_plus = saddle + delta * v_u
    if n == 1:
        return seed_plus[None, :]
    span = float(np.max(hi - lo))
    ds = span / (40.0 * n)
    plus = _trace_branch(system, seed_plus, lo, hi, ds)
    minus = _trace_branch(system, saddle - delta * v_u, lo, hi, ds)
    poly = np.vstack([minus[::-1], plus])
    return _resample_polyline(poly, n)


# ---------------------------------------------------------------------------
# Snapshot CSV + JSON sidecar.


def write_snapshots(path_stem: str, snaps: SnapshotSet) -> None:
    d = snaps.dim
    header = [f"x{k + 1}" for k in range(d)] + [f"y{k + 1}" for k in range(d)]
    _write_csv(f"{path_stem}.csv", header, np.hstack([snaps.x, snaps.y]), newline="\r\n")
    _write_json(f"{path_stem}.json", {"dt": snaps.dt, **snaps.metadata}, sort_keys=True)


_SNAPSHOTS_TABLE = {"dt": (_REQUIRED, _POSITIVE)}


def read_snapshots(path_stem: str) -> SnapshotSet:
    """The SnapshotSet that write_snapshots wrote to `path_stem`.csv/.json; a
    sidecar outside `_SNAPSHOTS_TABLE`, a CSV that is not a table of numbers
    of even width, and a non-finite value in it are refused, naming the file."""
    meta = _read_record(f"{path_stem}.json", _SNAPSHOTS_TABLE, closed=False)
    data = _read_csv(f"{path_stem}.csv", skiprows=1)
    if data.shape[1] % 2:
        raise ConfigurationError(f"{path_stem}.csv holds {data.shape[1]} columns, but a snapshot "
                                 f"row holds x and then y, an even count")
    bad = np.flatnonzero(~np.all(np.isfinite(data), axis=1))
    if bad.size:
        raise ConfigurationError(f"{path_stem}.csv: snapshot row {int(bad[0]) + 1} (after the "
                                 f"header) holds a non-finite value; snapshots must be finite")
    d = data.shape[1] // 2
    return SnapshotSet(x=data[:, :d], y=data[:, d:], dt=meta.pop("dt"), metadata=meta)
