"""Observable dictionaries mapping states to feature vectors, with Jacobians.

Two kinds: the identity map (plain DMD) and Gaussian radial basis functions,
whose one builder takes the centers (k-means centers of the snapshots in
rbf_dictionary, evenly tiled ones in the bridge families). The Jacobian of
each dictionary backs the spectral-norm constant L and the feature-sup
constant M used by the extension error bounds.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (_AT_LEAST_0, _AT_LEAST_1, _BANDWIDTH, _REQUIRED, ConfigurationError,
                   ContractViolationError, EvalGrid, _check_record, _Domain, _is_number, _json_type)

__all__ = [
    "Dictionary",
    "identity_dictionary",
    "rbf_dictionary",
    "kmeans_centers",
    "spectral_norm_bound_L",
    "feature_sup_M",
    "dictionary_from_spec",
]


@dataclass(frozen=True, eq=False)
class Dictionary:
    """A feature map Psi: R^d -> R^D with an analytic Jacobian.

    eval maps (n, d) -> (n, D); jacobian maps (n, d) -> (n, D, d).
    """

    dim_in: int
    eval_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    jac_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    spec: dict = field(default_factory=dict)

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim_in:
            raise ContractViolationError(
                f"dictionary expects dimension {self.dim_in}, got {pts.shape[1]}"
            )
        return self.eval_fn(pts)

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self.jac_fn(pts)


def identity_dictionary(d: int) -> Dictionary:
    """Psi(x) = x; the DMD dictionary. Its Jacobian is the identity, so L = 1."""
    if d < 1:
        raise ConfigurationError("dimension must be >= 1")
    return Dictionary(
        dim_in=d,
        eval_fn=lambda pts: pts.copy(),
        jac_fn=lambda pts: np.broadcast_to(np.eye(d), (pts.shape[0], d, d)).copy(),
        spec={"kind": "identity", "dim": d},
    )


def kmeans_centers(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with k-means++ initialization, at most 100 sweeps,
    stopping once no center moves by 1e-8 or more.

    Deterministic given the seed. Seeding keeps each point's squared distance
    to its nearest chosen center as a running minimum, so each draw adds one
    distance column (k - 1 in all). An empty cluster is re-seeded at the point
    farthest from every current center.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ConfigurationError(f"asked for {k} centers from {n} points; k must lie in [1, {n}]")
    rng = np.random.Generator(np.random.Philox(seed))

    def sq_dists(centers):
        return np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)

    centers = pts[rng.integers(pts.shape[0])][None, :]
    d2 = np.full(n, np.inf)
    while centers.shape[0] < k:
        # min is exact, so folding in the newest center's column gives the
        # same d2 as the minimum over every chosen center
        d2 = np.minimum(d2, sq_dists(centers[-1:])[:, 0])
        total = d2.sum()
        if total == 0:
            idx = rng.integers(pts.shape[0])
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random()))
            idx = min(idx, pts.shape[0] - 1)
        centers = np.vstack([centers, pts[idx]])

    for _ in range(100):
        d2 = sq_dists(centers)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = pts[labels == j]
            if members.shape[0] == 0:
                far = int(np.argmax(np.min(d2, axis=1)))
                new_centers[j] = pts[far]
            else:
                new_centers[j] = members.mean(axis=0)
        del d2  # gone before the next sweep builds its own
        motion = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if motion < 1e-8:
            break
    return centers


def rbf_dictionary(data, n_centers: int, bandwidth: float, seed: int) -> Dictionary:
    """Gaussian features psi_j(x) = exp(-|x - c_j|^2 / (2 sigma^2)) whose
    centers are the k-means centers of the SnapshotSet's stacked states.

    The bandwidth is the Gaussian sigma; the spec also records the k-means seed.
    """
    centers = kmeans_centers(np.vstack([data.x, data.y]), n_centers, seed)
    return _dictionary_from_centers(centers, bandwidth, seed=int(seed))


def _sq_dists(p: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The (n, k) squared distances of the points `p` to the rows of
    `centers`, with at most one more (n, k) array.

    The squares are added one coordinate at a time in coordinate order. They
    are >= +0, and np.sum(..., axis=2) adds fewer than 8 terms in that order,
    so for d < 8 the bits are those of np.sum((p[:, None] - c[None]) ** 2, axis=2).
    """
    out = np.subtract(p[:, :1], centers[:, 0])
    np.square(out, out=out)
    spare = None
    for j in range(1, centers.shape[1]):
        spare = np.subtract(p[:, j:j + 1], centers[:, j], out=spare)
        out += np.square(spare, out=spare)
    return out


def _dictionary_from_centers(centers, bandwidth: float, seed: int | None = None) -> Dictionary:
    """The one Gaussian builder: a feature of sigma `bandwidth` per row of
    `centers`. A given seed (of the k-means that chose the centers) is kept
    in the spec."""
    if not _BANDWIDTH.holds(bandwidth):
        raise ConfigurationError(f"bandwidth must be {_BANDWIDTH.says}, got {bandwidth}")
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.size == 0:
        raise ConfigurationError("a Gaussian dictionary needs at least one center, got none")
    sigma2 = float(bandwidth) ** 2
    d = centers.shape[1]

    def eval_fn(p):
        # exp(-|p - c|^2 / (2 sigma^2)), in place in the distance array; a
        # quotient past float range is -inf, whose exp is the 0 it stands for
        feats = _sq_dists(p, centers)
        np.negative(feats, out=feats)
        with np.errstate(over="ignore"):
            feats /= 2.0 * sigma2
        return np.exp(feats, out=feats)

    def jac_fn(p):
        feats = eval_fn(p)
        jac = np.empty(feats.shape + (d,))
        for j in range(d):
            with np.errstate(over="ignore", invalid="ignore"):
                slope = -(p[:, j:j + 1] - centers[:, j]) / sigma2
                np.multiply(feats, slope, out=jac[:, :, j])
            # a feature that underflowed to 0 times a slope past float range:
            # the 0 of a finite slope, not the NaN of 0 * inf
            lost = np.isinf(slope)
            if lost.any():
                lost &= feats == 0
                jac[:, :, j][lost] = np.copysign(0.0, slope[lost])
        return jac

    spec = {"kind": "rbf_gaussian", "dim": d, "bandwidth": float(bandwidth),
            "centers": centers.tolist()}
    if seed is not None:
        spec["seed"] = seed
    return Dictionary(dim_in=d, eval_fn=eval_fn, jac_fn=jac_fn, spec=spec)


def spectral_norm_bound_L(dic: Dictionary, grid: EvalGrid) -> float:
    """max over the grid of the largest singular value of the dictionary Jacobian."""
    J = dic.jacobian(grid.points)
    svals = np.linalg.svd(J, compute_uv=False)
    return float(np.max(svals[:, 0]))


def feature_sup_M(dic: Dictionary, grid: EvalGrid) -> float:
    """max over the grid of the Euclidean feature norm |Psi(x)|."""
    feats = dic.eval(grid.points)
    return float(np.max(np.linalg.norm(feats, axis=1)))


_KINDS = ("identity", "rbf_gaussian")
_KIND = _Domain(" or ".join(_KINDS), lambda v: isinstance(v, str) and v in _KINDS)
_SPEC_HEAD = {"kind": (_REQUIRED, _KIND), "dim": (_REQUIRED, _AT_LEAST_1)}
_NULL_OR_SEED = _Domain("null or an integer >= 0", lambda v: v is None or _AT_LEAST_0.holds(v))


def _spec_tables(dim: int) -> dict:
    """Each dictionary kind's spec table, for a spec whose `dim` is `dim`."""
    rows = _Domain(f"an array of rows of {dim} finite numbers", lambda v: _json_type(v) == "array"
                   and all(_json_type(r) == "array" and len(r) == dim and all(map(_is_number, r))
                           for r in v))
    return {"identity": _SPEC_HEAD,
            "rbf_gaussian": {**_SPEC_HEAD, "bandwidth": (_REQUIRED, _BANDWIDTH),
                             "centers": (_REQUIRED, rows), "seed": (None, _NULL_OR_SEED)}}


def dictionary_from_spec(spec, name: str = "dictionary spec") -> Dictionary:
    """The dictionary that `spec` describes; a spec outside its kind's table is
    refused, naming `name` and the key."""
    head = _check_record(name, spec, _SPEC_HEAD, closed=False)
    s = _check_record(name, spec, _spec_tables(head["dim"])[head["kind"]])
    if s["kind"] == "identity":
        return identity_dictionary(s["dim"])
    return _dictionary_from_centers(s["centers"], s["bandwidth"], s["seed"])
