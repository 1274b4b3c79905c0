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

import json
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, EmptySupportError, EvalGrid, FlowedGrid, singular_mask
from .dictionary import _dictionary_from_centers, rbf_dictionary
from .dynamics import BenchmarkSystem, FlowMap, sample_snapshots
from .extend import EigenfunctionExpr, expr_from_weights, normalize_to_grid, trajectory_error
from .regression import fit_edmd

__all__ = [
    "FamilyMember",
    "LocalFamily",
    "BridgeMap",
    "fit_local_family",
    "leading_member",
    "fit_bridge",
    "continue_across",
    "write_bridge_report",
]


@dataclass(frozen=True, eq=False)
class FamilyMember:
    expr: EigenfunctionExpr  # normalized to unit grid norm on the window
    eigenvalue: float
    trajectory_error: float


@dataclass(frozen=True, eq=False)
class LocalFamily:
    """Real-eigenvalue eigenfunctions fit from data near one steady state."""

    anchor: np.ndarray
    model: object
    members: tuple
    window: tuple  # (lo, hi) box of validity

    def __len__(self) -> int:
        return len(self.members)


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
    dict_config: dict,
    spurious_threshold: float = 1e-2,
    n_pairs: int = 2000,
    dt: float = 0.05,
    seed: int = 0,
    ridge: float = 1e-10,
    n_grid: int = 257,
    samples_per_traj: int = 2,
) -> LocalFamily:
    """EDMD around one steady state, keeping only credible real-eigenvalue
    eigenfunctions.

    Snapshots are sampled uniformly in [anchor - radius, anchor + radius].
    A member survives when its eigenvalue is real (|Im| <= 1e-8) and its
    power-1 trajectory error on the window, after normalization to unit grid
    norm there, stays below `spurious_threshold`.
    """
    anchor = np.atleast_1d(np.asarray(anchor, dtype=float))
    if system.dim != 1:
        raise ConfigurationError("local families are built for 1D systems")
    lo, hi = anchor - radius, anchor + radius
    snaps = sample_snapshots(system, n_pairs, dt, (lo, hi), seed, samples_per_traj)
    n_centers = dict_config.get("n_centers", 60)
    if dict_config.get("placement", "uniform") == "uniform":
        # tight 1D kernels need evenly tiled centers over the fit window
        span = float(np.max(np.abs(snaps.y - anchor)))
        reach = max(radius, span)
        centers = np.linspace(anchor[0] - reach, anchor[0] + reach, n_centers)
        dic = _dictionary_from_centers(centers.reshape(-1, 1), dict_config["bandwidth"])
    else:
        dic = rbf_dictionary(
            snaps,
            n_centers=n_centers,
            bandwidth=dict_config["bandwidth"],
            seed=dict_config.get("seed", seed),
        )
    model = fit_edmd(snaps, dic, ridge=ridge)
    h = (hi[0] - lo[0]) / (n_grid - 1)
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
        err = trajectory_error(expr, flowed, p=1)
        if err <= spurious_threshold:
            members.append(FamilyMember(expr, lam, err))
    members.sort(key=lambda m: -abs(m.eigenvalue))
    return LocalFamily(anchor=anchor, model=model, members=tuple(members), window=(lo, hi))


def leading_member(family: LocalFamily, exclude_trivial: bool = True) -> FamilyMember:
    """Largest-|eigenvalue| member; by default the near-unit trivial mode
    (constant-like eigenfunction, degenerate in log space) is skipped."""
    for m in family.members:
        if exclude_trivial and abs(m.eigenvalue - 1.0) < 1e-4:
            continue
        return m
    raise EmptySupportError("family has no usable members")


def _member_expr(side, selection) -> EigenfunctionExpr:
    if isinstance(side, LocalFamily):
        if selection is None:
            return leading_member(side).expr
        return side.members[selection].expr
    if isinstance(side, EigenfunctionExpr):
        return side
    if hasattr(side, "eval") and hasattr(side, "eigenvalue"):
        from .extend import expr_from_analytic

        return expr_from_analytic(side)
    raise ConfigurationError("expected a LocalFamily, expression, or analytic eigenfunction")


def _log_magnitudes(expr: EigenfunctionExpr, points: np.ndarray) -> np.ndarray:
    vals = expr.eval(points)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.abs(vals))
    out[singular_mask(vals)] = np.nan
    return out


def _rescaled(expr: EigenfunctionExpr, factor: float) -> EigenfunctionExpr:
    return EigenfunctionExpr(
        factors=expr.factors,
        eigenvalue=expr.eigenvalue,
        eigenvalue_kind=expr.eigenvalue_kind,
        scale=expr.scale * factor,
        provenance=expr.provenance,
    )


def fit_bridge(
    left,
    right,
    window,
    tikhonov: float = 1e-8,
    selection: tuple | None = None,
    n_samples: int = 256,
) -> BridgeMap:
    """Fit log|phi_left| c = log|phi_right| (and the reverse) on the window.

    `left`/`right` are LocalFamily instances (a member index pair may be given
    through `selection`), expressions, or analytic eigenfunctions. Points where
    either log field is non-finite are masked; an empty mask is an error.

    Each member is first rescaled to zero log-magnitude mean over the window
    samples. Eigenfunctions are only defined up to a scalar, and the
    one-parameter model has no intercept to absorb that freedom; with this
    scale choice, members that are powers of a common principal eigenfunction
    satisfy the model exactly and c recovers the eigenvalue ratio.
    """
    if tikhonov < 0:
        raise ConfigurationError("tikhonov must be nonnegative")
    sel_l, sel_r = selection if selection is not None else (None, None)
    le = _member_expr(left, sel_l)
    re_ = _member_expr(right, sel_r)
    wlo, whi = float(window[0]), float(window[1])
    pts = np.linspace(wlo, whi, n_samples).reshape(-1, 1)
    gl = _log_magnitudes(le, pts)
    gr = _log_magnitudes(re_, pts)
    keep = np.isfinite(gl) & np.isfinite(gr)
    if not np.any(keep):
        raise EmptySupportError("both log fields are masked everywhere on the window")
    m_l = float(np.mean(gl[keep]))
    m_r = float(np.mean(gr[keep]))
    le = _rescaled(le, np.exp(-m_l))
    re_ = _rescaled(re_, np.exp(-m_r))
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
        left_expr=le,
        right_expr=re_,
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


def write_bridge_report(path, bmap: BridgeMap, member_indices=(None, None)) -> None:
    payload = {
        "c_forward": bmap.c_forward,
        "c_backward": bmap.c_backward,
        "window": list(bmap.window),
        "residual_forward": bmap.residuals[0],
        "residual_backward": bmap.residuals[1],
        "tikhonov": bmap.tikhonov,
        "member_indices": list(member_indices),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
