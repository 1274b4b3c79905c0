"""Isochrons and isostables: Laplace averaging of observables, limit-cycle
period extraction, the polar benchmark's closed-form branched eigenfunctions,
and the invertible interior/exterior transformations that carry trajectories
across a limit cycle.

A complex phase field packs both coordinates at once: the modulus is the
isostable coordinate, the principal argument the isochron coordinate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DIVERGENCE_LIMIT,
    MAX_STEPS,
    ConfigurationError,
    DivergenceError,
    DomainError,
    EvalGrid,
    SingularInputError,
    _write_csv,
    principal_arg,
    singular_mask,
    tag_nonfinite,
)
from .dynamics import (
    BenchmarkSystem,
    DenseOrbit,
    VectorField,
    _dp45_dense,
    _dp_step,
    _polar_lc_values,
    _polar_ss_values,
    _polar_twist,
)

__all__ = [
    "PhaseField",
    "BranchedEigenfunction",
    "laplace_average_batch",
    "limit_cycle_period",
    "polar_eigenfunctions",
    "transform_Ti",
    "transform_Ti_inv",
    "transform_To",
    "map_trajectory_outside",
    "isofield",
    "write_phase_csv",
]


@dataclass(frozen=True, eq=False)
class PhaseField:
    """Complex eigenfunction values on a grid; |values| are isostable
    coordinates, principal arguments are isochron coordinates."""

    grid: EvalGrid
    values: np.ndarray
    eigenvalue: complex


@dataclass(frozen=True)
class BranchedEigenfunction:
    """Closed-form eigenfunction split into interior/exterior branches of a
    limit cycle; each branch maps (r, theta) arrays to complex values."""

    interior: Callable
    exterior: Callable


def laplace_average_batch(
    fld: VectorField,
    observable: Callable[[np.ndarray], np.ndarray],
    lam: complex,
    points: np.ndarray,
    T: float,
    step: float,
) -> np.ndarray:
    """(1/T) integral of f(F^t x) e^{-lam t} dt by trapezoid over fixed
    Dormand-Prince nodes, for every row of `points` at once.

    Rows never mix, so a row's value does not depend on the rest of the batch.
    Rows whose integrand exceeds the divergence guard raise DivergenceError,
    which names the time, the step and how many rows crossed; callers that
    prefer masking should split the batch.

    The steps are first-same-as-last: each step's 7th stage is the next
    step's 1st, so the average makes 6 rhs calls per step, plus one at t = 0.
    A T or step that is not finite and positive, or a T / step that rounds
    to 0 or to more than MAX_STEPS steps, is refused (ConfigurationError).
    """
    if not (0 < T < math.inf and 0 < step < math.inf):
        raise ConfigurationError(f"horizon and step must be finite and positive, got "
                                 f"T = {T}, step = {step}")
    n_steps = _laplace_steps(T, step, f"{T:g}")
    # column-major, so each coordinate column the rhs reads and writes is contiguous
    y = np.array(np.atleast_2d(points), dtype=float, order="F")
    h = T / n_steps
    lam = complex(lam)
    g_prev = np.asarray(observable(y), dtype=complex)
    acc = np.zeros(y.shape[0], dtype=complex)
    t = 0.0
    k0 = fld.rhs(y)
    for i in range(n_steps):
        y, k = _dp_step(fld.rhs, y, h, k0)
        k0 = k[6]
        t += h
        g = np.asarray(observable(y), dtype=complex) * np.exp(-lam * t)
        if np.any(np.abs(g) > DIVERGENCE_LIMIT) or not np.all(np.isfinite(y)):
            crossed = (np.abs(g) > DIVERGENCE_LIMIT) | ~np.all(np.isfinite(y), axis=1)
            raise DivergenceError(
                f"Laplace integrand exceeded the divergence guard {DIVERGENCE_LIMIT:g} "
                f"at t = {t:.6g} (step {i + 1} of {n_steps}) in {int(crossed.sum())} of "
                f"{len(crossed)} rows; the eigenvalue is incompatible with this "
                "observable over this horizon"
            )
        acc += 0.5 * h * (g_prev + g)
        g_prev = g
    return acc / T


# the latest first return limit_cycle_period searches for
_PERIOD_HORIZON = 100.0


def limit_cycle_period(fld: VectorField, x0) -> tuple[float, float, DenseOrbit]:
    """(omega, period, orbit) of the attracting limit cycle reachable from x0.

    The state is first relaxed onto the cycle for 60 time units, then a
    Poincare section is placed through the relaxed point with the flow
    direction as its normal, and the flow is integrated until its first
    return to the section; the period is that return time, bisected on the
    dense output down to adjacent floats. _PERIOD_HORIZON caps the search
    for that return: without one before t = _PERIOD_HORIZON,
    DivergenceError.

    Both solves are `_dp45_dense` at rtol = atol = 1e-12, and every product
    here is summed in Python floats, so the period does not depend on the
    BLAS. `orbit` is the dense output of the one-period solve: orbit(t) is
    the state at time t after the relaxed point, for 0 <= t <= the step end
    past the first return. So orbit(np.linspace(0, period, n)) samples the
    cycle once round.
    """
    relax, _ = _dp45_dense(fld.rhs, x0, 60.0, 1e-12, 1e-12)
    p0 = relax.y[-1]
    flow = fld.rhs(p0).tolist()
    speed = math.hypot(*flow)
    if speed < 1e-12:
        raise ConfigurationError("x0 relaxed onto a steady state, not a cycle")
    normal = [v / speed for v in flow]
    orbit, period = _dp45_dense(fld.rhs, p0, _PERIOD_HORIZON, 1e-12, 1e-12,
                                section=(p0, normal))
    if period is None:
        raise DivergenceError("no return to the section within the horizon; no cycle found")
    return 2.0 * math.pi / period, period, orbit


# ---------------------------------------------------------------------------
# Polar benchmark: closed-form eigenfunctions and the transformations.


def polar_eigenfunctions(mu: float, alpha: float, C: float):
    """(phi_lc, phi_ss): the branched limit-cycle eigenfunction and the
    steady-state eigenfunction of the polar benchmark, as (r, theta) evaluators.

    phi_lc carries eigenvalue -2 mu + i omega and is singular at r = 0;
    phi_ss carries mu + i (omega - alpha sqrt(mu)), lives on 0 <= r < sqrt(mu),
    and is singular at the cycle. The rotation rate omega enters only the
    eigenvalues, not the values.
    """
    if mu <= 0 or C <= 0:
        raise ConfigurationError(f"need mu > 0, C > 0, got mu = {mu}, C = {C}")
    smu = math.sqrt(mu)

    def phi_lc_branch(inside: bool):
        def evaluator(r, theta):
            r = np.asarray(r, dtype=float)
            theta = np.asarray(theta, dtype=float)
            if inside and np.any((r <= 0) | (r >= smu)):
                raise DomainError("interior branch needs 0 < r < sqrt(mu)")
            if not inside and np.any(r <= smu):
                raise DomainError("exterior branch needs r > sqrt(mu)")
            return _polar_lc_values(r, theta, mu, alpha, C)

        return evaluator

    def phi_ss(r, theta):
        r = np.asarray(r, dtype=float)
        if np.any(r >= smu + 1e-15):
            raise DomainError("steady-state eigenfunction is defined for 0 <= r < sqrt(mu)")
        return tag_nonfinite(_polar_ss_values(r, np.asarray(theta, dtype=float), mu, alpha, C))

    phi_lc = BranchedEigenfunction(
        interior=phi_lc_branch(True),
        exterior=phi_lc_branch(False),
    )
    return phi_lc, phi_ss


def transform_Ti(z, mu: float, alpha: float, C: float):
    """Interior change of representation from limit-cycle to steady-state
    eigenfunction values:
    T_i(z) = sqrt(C^3/|z|) exp(i [arg z + (alpha/(2 sqrt(mu))) ln(|z|/C)]).
    """
    zz = np.asarray(z, dtype=complex)
    if np.any(zz == 0):
        raise SingularInputError("T_i is undefined at 0")
    r = np.abs(zz)
    ang = np.asarray(principal_arg(zz)) + (alpha / (2.0 * math.sqrt(mu))) * np.log(r / C)
    out = np.sqrt(C**3 / r) * np.exp(1j * ang)
    return complex(out) if out.ndim == 0 else out


def transform_Ti_inv(v, mu: float, alpha: float, C: float):
    """Inverse of transform_Ti:
    T_i^{-1}(v) = (C^3/|v|^2) exp(i [arg v - (alpha/sqrt(mu)) ln(C/|v|)])."""
    vv = np.asarray(v, dtype=complex)
    if np.any(vv == 0):
        raise SingularInputError("T_i^{-1} is undefined at 0")
    r = np.abs(vv)
    ang = np.asarray(principal_arg(vv)) - (alpha / math.sqrt(mu)) * np.log(C / r)
    out = (C**3 / r**2) * np.exp(1j * ang)
    return complex(out) if out.ndim == 0 else out


def _push_outside(s, ang, mu: float, alpha: float, C: float):
    """(r, theta) outside the cycle for the interior isostable level s and the
    eigenfunction argument ang: s goes through the monotone bijection
    s -> C s/(1 + s) onto the exterior isostable range (0, C), the exterior
    radius is recovered from it, and theta keeps the argument ang."""
    s_out = C * s / (1.0 + s)
    r_out = np.sqrt(mu / (1.0 - s_out / C))
    return r_out, np.mod(ang + _polar_twist(r_out, r_out, mu, alpha), 2.0 * math.pi)


def transform_To(r, theta, mu: float, alpha: float, C: float):
    """Carry interior points across the cycle while preserving the isochron.

    The interior isostable level s = C(mu/r^2 - 1) is pushed through the
    monotone bijection s -> C s/(1 + s) onto the exterior isostable range
    (0, C), the exterior radius is recovered, and the angular coordinate is
    chosen so the eigenfunction argument is unchanged.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    smu = math.sqrt(mu)
    if np.any((r <= 0) | (r >= smu)):
        raise DomainError("transform_To needs 0 < r < sqrt(mu)")
    s = C * (mu / r**2 - 1.0)
    r_out, theta_out = _push_outside(s, theta - _polar_twist(r, r, mu, alpha), mu, alpha, C)
    if r_out.ndim == 0:
        return float(r_out), float(theta_out)
    return r_out, theta_out


def map_trajectory_outside(trajectory, mu: float, alpha: float, C: float):
    """Map an interior trajectory, given as (r, theta) rows with
    0 < r < sqrt(mu), to its exterior image:
    read off the steady-state eigenfunction, change representation with
    T_i^{-1}, push the isostable level outside, and invert the exterior
    limit-cycle branch. Points at r = 0 or on the cycle come back
    singular-tagged.
    """
    traj = np.atleast_2d(np.asarray(trajectory, dtype=float))
    r, theta = traj[:, 0], traj[:, 1]
    smu = math.sqrt(mu)
    ok = (r > 0) & (r < smu)
    out = np.full_like(traj, np.nan)
    if np.any(ok):
        _, phi_ss = polar_eigenfunctions(mu, alpha, C)
        z2 = phi_ss(r[ok], theta[ok])
        v = transform_Ti_inv(z2, mu, alpha, C)
        out[ok, 0], out[ok, 1] = _push_outside(
            np.abs(v), np.asarray(principal_arg(v)), mu, alpha, C
        )
    return out


# ---------------------------------------------------------------------------


def isofield(system: BenchmarkSystem, method: str, grid: EvalGrid, period=None) -> PhaseField:
    """Complex eigenfunction values on a grid, by closed form or Laplace average.

    method 'analytic' uses the system's first analytic eigenfunction (the
    polar benchmark's limit-cycle one). method 'laplace_average' integrates
    the observable sin(x1 + x2) with eigenvalue i omega, omega = 2 pi /
    period, from the given cycle period (measured by limit_cycle_period),
    over 50 periods at the quadrature step period/200.
    """
    if method == "analytic":
        if not system.analytic_eigenfunctions:
            raise ConfigurationError(f"{system.id} has no analytic eigenfunctions")
        eig = system.analytic_eigenfunctions[0]
        vals = eig.eval(grid.points)
        return PhaseField(grid, vals, complex(eig.eigenvalue))
    if method != "laplace_average":
        raise ConfigurationError("method must be 'analytic' or 'laplace_average'")
    lam, T, step = _laplace_plan(period)
    values = laplace_average_batch(system.field, _sin_sum, lam, grid.points, T, step)
    return PhaseField(grid, values, lam)


def _sin_sum(pts: np.ndarray) -> np.ndarray:
    """sin(x1 + x2), the observable every Laplace-average field averages."""
    return np.sin(pts[:, 0] + pts[:, 1])


def _laplace_plan(period, T=None, step=None) -> tuple[complex, float, float]:
    """(lam, T, step) of a Laplace-average field, the one rule behind all of
    them: eigenvalue i omega, omega = 2 pi / period; the horizon (default 50
    periods) rounded to whole periods so rotating terms cancel exactly; the
    step period/200 unless set. A non-positive T or step is refused, and so is
    a step over twice the rounded horizon, which leaves 0 steps, or one that
    leaves more than MAX_STEPS (`_laplace_steps`)."""
    if period is None or not (math.isfinite(period) and period > 0):
        raise ConfigurationError(
            f"laplace_average needs the positive limit-cycle period, got {period}"
        )
    for name, value in (("T", T), ("step", step)):
        if value is not None and not value > 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")
    lam = complex(0.0, 2.0 * math.pi / period)
    horizon = 50.0 * period if T is None else T
    rounded = period * max(1, round(horizon / period))
    step = period / 200.0 if step is None else step
    given = "50 periods" if T is None else f"{T:g}"
    _laplace_steps(rounded, step, f"{given}, rounded to whole periods {rounded:g},")
    return lam, rounded, step


def _laplace_steps(T: float, step: float, horizon: str) -> int:
    """round(T / step), the fixed steps of a Laplace average over the
    positive horizon T, and the one home of its refusals: a count over
    MAX_STEPS or of 0 is a ConfigurationError naming the count and the
    horizon, described by `horizon`."""
    n_steps = float(T) / float(step)  # inf, not a warning, past the float range
    if n_steps > MAX_STEPS:
        raise ConfigurationError(
            f"horizon T = {horizon} takes {n_steps:.4g} steps of step = {step:g}, "
            f"over the {MAX_STEPS}-step cap"
        )
    if round(n_steps) == 0:
        raise ConfigurationError(
            f"horizon T = {horizon} is under half the step = {step:g}, so it rounds to 0 steps"
        )
    return round(n_steps)


def write_phase_csv(path, field_: PhaseField) -> None:
    """CSV rows x1,...,xd,abs,arg,singular in grid enumeration order; the
    abs and arg of singular rows read nan."""
    grid = field_.grid
    vals = np.asarray(field_.values, dtype=complex)
    sing = singular_mask(vals)
    # hypot, not np.abs: it matches the scalar abs() of each value bit for bit
    mag = np.where(sing, np.nan, np.hypot(vals.real, vals.imag))
    arg = np.where(sing, np.nan, principal_arg(vals))
    header = [f"x{k + 1}" for k in range(grid.dim)] + ["abs", "arg", "singular"]
    _write_csv(path, header, np.column_stack([grid.points, mag, arg, sing]), newline="\r\n")
