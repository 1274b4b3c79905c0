"""Continuation of eigenfunctions across singularities.

A one-dimensional system with two steady states carries eigenfunction
families anchored at each state; each family blows up at the other anchor.
This module fits local EDMD models around each anchor, filters out spurious
members (complex eigenvalue, or trajectory error above a threshold), learns
the one-parameter linear relation between the two families in log-magnitude
space on an intermediate window, and uses that relation to evaluate a family
past the singularity where it was never fit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (ConfigurationError, EmptySupportError, EvalGrid, FlowedGrid, _write_json,
                   singular_mask)
from .dictionary import _dictionary_from_centers
from .dynamics import BenchmarkSystem, FlowMap, sample_snapshots
from .extend import EigenfunctionExpr, PowerErrors, expr_from_weights, normalize_to_grid
from .regression import fit_edmd

__all__ = [
    "BridgeMap",
    "fit_local_family",
    "leading_member",
    "fit_bridge",
    "continue_across",
    "write_bridge_report",
]


@dataclass(frozen=True, eq=False)
class BridgeMap:
    """One-parameter log-space map between two eigenfunction families.

    log|phi_left| * c_forward ~ log|phi_right| on the fitting window, and
    c_backward the other way around; for analytic families the product
    c_forward * c_backward is 1 and each coefficient is the eigenvalue ratio.
    """

    c_forward: float
    c_backward: float
    window: tuple
    residuals: tuple  # (forward RMS, backward RMS) in log space
    tikhonov: float
    left_expr: EigenfunctionExpr
    right_expr: EigenfunctionExpr


IMAG_TOL = 1e-8


def fit_local_family(
    system: BenchmarkSystem,
    anchor,
    radius: float,
    n_centers: int,
    bandwidth: float,
    spurious_threshold: float = 1e-2,
    n_pairs: int = 2000,
    dt: float = 0.05,
    seed: int = 0,
) -> tuple[EigenfunctionExpr, ...]:
    """EDMD around one steady state, keeping only credible real-eigenvalue
    eigenfunctions: their expressions, normalized to unit grid norm on the
    window, largest |eigenvalue| first.

    Snapshots are sampled uniformly in [anchor - radius, anchor + radius].
    The dictionary is `n_centers` Gaussians of sigma `bandwidth` with centers
    evenly tiled over the window, fit with ridge 1e-10.
    A member survives when its eigenvalue is real (|Im| <= 1e-8) and its
    power-1 trajectory error on a 257-point grid over the window, after
    normalization to unit grid norm there, stays below `spurious_threshold`.
    """
    anchor = np.atleast_1d(np.asarray(anchor, dtype=float))
    if system.dim != 1:
        raise ConfigurationError("local families are built for 1D systems")
    if not n_centers >= 1:
        raise ConfigurationError(f"n_centers must be >= 1, got {n_centers}")
    lo, hi = anchor - radius, anchor + radius
    snaps = sample_snapshots(system, n_pairs, dt, (lo, hi), seed)
    # tight 1D kernels need evenly tiled centers over the fit window
    reach = max(radius, float(np.max(np.abs(snaps.y - anchor))))
    centers = np.linspace(anchor[0] - reach, anchor[0] + reach, n_centers)
    dic = _dictionary_from_centers(centers.reshape(-1, 1), bandwidth)
    model = fit_edmd(snaps, dic, ridge=1e-10)
    h = (hi[0] - lo[0]) / 256
    grid = EvalGrid((lo[0],), (hi[0],), min(h, 0.999))
    flowed = FlowedGrid.of(
        FlowMap(system.field, dt, method="exact" if system.field.exact_flow else "rk45"),
        grid,
    )
    lams, W = np.linalg.eig(model.K.T)
    members = []
    for j in range(lams.size):
        if abs(lams[j].imag) > IMAG_TOL:
            continue
        lam = float(lams[j].real)
        w = W[:, j]
        if np.max(np.abs(w.imag)) < 1e-12:
            w = w.real
        expr = expr_from_weights(model, w, lam)
        try:
            expr = normalize_to_grid(expr, grid)
        except EmptySupportError:
            continue
        if PowerErrors(expr, flowed)(1)[1] <= spurious_threshold:
            members.append(expr)
    members.sort(key=lambda m: -abs(m.eigenvalue))
    return tuple(members)


def leading_member(family: tuple[EigenfunctionExpr, ...]) -> EigenfunctionExpr:
    """Largest-|eigenvalue| member of a fit_local_family result, skipping the
    near-unit trivial mode (constant-like eigenfunction, degenerate in log
    space)."""
    for m in family:
        if abs(m.eigenvalue - 1.0) < 1e-4:
            continue
        return m
    raise EmptySupportError("family has no usable members")


def _log_magnitudes(expr: EigenfunctionExpr, points: np.ndarray) -> np.ndarray:
    vals = expr.eval(points)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.abs(vals))
    out[singular_mask(vals)] = np.nan
    return out


def fit_bridge(
    left: EigenfunctionExpr,
    right: EigenfunctionExpr,
    window,
    tikhonov: float = 1e-8,
) -> BridgeMap:
    """Fit log|phi_left| c = log|phi_right| (and the reverse) on 256 evenly
    spaced window points.

    Points where either log field is non-finite are masked; an empty mask is
    an error.

    Each member is first rescaled to zero log-magnitude mean over the window
    samples. Eigenfunctions are only defined up to a scalar, and the
    one-parameter model has no intercept to absorb that freedom; with this
    scale choice, members that are powers of a common principal eigenfunction
    satisfy the model exactly and c recovers the eigenvalue ratio.
    """
    if tikhonov < 0:
        raise ConfigurationError("tikhonov must be nonnegative")
    wlo, whi = float(window[0]), float(window[1])
    if not wlo < whi:
        raise ConfigurationError(f"window must have lo < hi, got {list(window)}")
    pts = np.linspace(wlo, whi, 256).reshape(-1, 1)
    gl = _log_magnitudes(left, pts)
    gr = _log_magnitudes(right, pts)
    keep = np.isfinite(gl) & np.isfinite(gr)
    if not np.any(keep):
        raise EmptySupportError("both log fields are masked everywhere on the window")
    m_l = float(np.mean(gl[keep]))
    m_r = float(np.mean(gr[keep]))
    left = replace(left, scale=left.scale * np.exp(-m_l))
    right = replace(right, scale=right.scale * np.exp(-m_r))
    gl = gl[keep] - m_l
    gr = gr[keep] - m_r
    c_fwd = float(gl @ gr / (gl @ gl + tikhonov))
    c_bwd = float(gr @ gl / (gr @ gr + tikhonov))
    res_fwd = float(np.sqrt(np.mean((gl * c_fwd - gr) ** 2)))
    res_bwd = float(np.sqrt(np.mean((gr * c_bwd - gl) ** 2)))
    return BridgeMap(
        c_forward=c_fwd,
        c_backward=c_bwd,
        window=(wlo, whi),
        residuals=(res_fwd, res_bwd),
        tikhonov=float(tikhonov),
        left_expr=left,
        right_expr=right,
    )


def continue_across(bmap: BridgeMap, source: str, points) -> np.ndarray:
    """Magnitude of the `source`-side eigenfunction continued onto `points`
    by powering the partner family: exp(c * log|phi_partner|).

    Magnitude only; the logarithm does not carry sign or phase. Singular
    partner evaluations stay tagged (NaN).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if source == "left":
        partner, c = bmap.right_expr, bmap.c_backward
    elif source == "right":
        partner, c = bmap.left_expr, bmap.c_forward
    else:
        raise ConfigurationError("source must be 'left' or 'right'")
    g = _log_magnitudes(partner, pts)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.exp(c * g)


def write_bridge_report(path, bmap: BridgeMap) -> None:
    payload = {
        "c_forward": bmap.c_forward,
        "c_backward": bmap.c_backward,
        "window": list(bmap.window),
        "residual_forward": bmap.residuals[0],
        "residual_backward": bmap.residuals[1],
        "tikhonov": bmap.tikhonov,
        # no member indices: fit_bridge always pairs the two leading members
        "member_indices": [None, None],
    }
    _write_json(path, payload, sort_keys=True)
