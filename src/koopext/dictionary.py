"""Observable dictionaries mapping states to feature vectors, with Jacobians.

Three kinds: the identity map (plain DMD), Gaussian radial basis functions
with k-means centers, and monomials up to a total degree. The Jacobian of
each dictionary backs the spectral-norm constant L and the feature-sup
constant M used by the extension error bounds.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import ConfigurationError, ContractViolationError, EvalGrid

__all__ = [
    "Dictionary",
    "identity_dictionary",
    "monomial_dictionary",
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
    kind: str
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
        kind="identity",
        eval_fn=lambda pts: pts.copy(),
        jac_fn=lambda pts: np.broadcast_to(np.eye(d), (pts.shape[0], d, d)).copy(),
        spec={"kind": "identity", "dim": d},
    )


def monomial_dictionary(d: int, max_degree: int) -> Dictionary:
    """All monomials of total degree <= max_degree, graded-lexicographic order."""
    if max_degree < 0:
        raise ConfigurationError("max_degree must be >= 0")
    exponents = [
        alpha
        for deg in range(max_degree + 1)
        for alpha in sorted(
            (a for a in itertools.product(range(deg + 1), repeat=d) if sum(a) == deg),
            reverse=True,
        )
    ]
    E = np.asarray(exponents)  # (D, d)

    def eval_fn(pts):
        # prod_j x_j^{E_kj} for each feature k
        return np.prod(pts[:, None, :] ** E[None, :, :], axis=2)

    def jac_fn(pts):
        n, D = pts.shape[0], E.shape[0]
        J = np.zeros((n, D, d))
        for j in range(d):
            Ej = E.copy()
            mask = Ej[:, j] > 0
            Ej[mask, j] -= 1
            with np.errstate(invalid="ignore"):
                part = np.prod(pts[:, None, :] ** Ej[None, :, :], axis=2)
            J[:, :, j] = np.where(mask[None, :], E[None, :, j] * part, 0.0)
        return J

    return Dictionary(
        dim_in=d,
        kind="monomial",
        eval_fn=eval_fn,
        jac_fn=jac_fn,
        spec={"kind": "monomial", "dim": d, "max_degree": max_degree},
    )


def kmeans_centers(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd's algorithm with k-means++ initialization, at most 100 sweeps,
    stopping once no center moves by 1e-8 or more.

    Deterministic given the seed. An empty cluster is re-seeded at the point
    farthest from every current center.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if k > pts.shape[0]:
        raise ConfigurationError(f"asked for {k} centers from {pts.shape[0]} points")
    rng = np.random.Generator(np.random.Philox(seed))

    def sq_dists(centers):
        return np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)

    centers = pts[rng.integers(pts.shape[0])][None, :]
    while centers.shape[0] < k:
        d2 = np.min(sq_dists(centers), axis=1)
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
        motion = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        if motion < 1e-8:
            break
    return centers


def rbf_dictionary(data, n_centers: int, bandwidth: float, seed: int) -> Dictionary:
    """Gaussian features psi_j(x) = exp(-|x - c_j|^2 / (2 sigma^2)).

    `data` is a SnapshotSet or an (n, d) array; centers come from k-means over
    the stacked snapshot states. The bandwidth parameter is the Gaussian sigma.
    """
    if bandwidth <= 0:
        raise ConfigurationError("bandwidth must be positive")
    if hasattr(data, "x") and hasattr(data, "y"):
        pts = np.vstack([data.x, data.y])
    else:
        pts = np.atleast_2d(np.asarray(data, dtype=float))
    dic = _dictionary_from_centers(kmeans_centers(pts, n_centers, seed), bandwidth)
    dic.spec["seed"] = int(seed)
    return dic


def _dictionary_from_centers(centers: np.ndarray, bandwidth: float) -> Dictionary:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    sigma2 = float(bandwidth) ** 2
    d = centers.shape[1]

    def eval_fn(p):
        diff = p[:, None, :] - centers[None, :, :]
        return np.exp(-np.sum(diff**2, axis=2) / (2.0 * sigma2))

    def jac_fn(p):
        diff = p[:, None, :] - centers[None, :, :]
        feats = np.exp(-np.sum(diff**2, axis=2) / (2.0 * sigma2))
        return feats[:, :, None] * (-diff / sigma2)

    return Dictionary(
        dim_in=d,
        kind="rbf_gaussian",
        eval_fn=eval_fn,
        jac_fn=jac_fn,
        spec={
            "kind": "rbf_gaussian",
            "dim": d,
            "bandwidth": float(bandwidth),
            "centers": centers.tolist(),
        },
    )


def spectral_norm_bound_L(dic: Dictionary, grid: EvalGrid) -> float:
    """max over the grid of the largest singular value of the dictionary Jacobian."""
    J = dic.jacobian(grid.points)
    svals = np.linalg.svd(J, compute_uv=False)
    return float(np.max(svals[:, 0]))


def feature_sup_M(dic: Dictionary, grid: EvalGrid) -> float:
    """max over the grid of the Euclidean feature norm |Psi(x)|."""
    feats = dic.eval(grid.points)
    return float(np.max(np.linalg.norm(feats, axis=1)))


def dictionary_from_spec(spec: dict) -> Dictionary:
    kind = spec["kind"]
    if kind == "identity":
        return identity_dictionary(spec["dim"])
    if kind == "monomial":
        return monomial_dictionary(spec["dim"], spec["max_degree"])
    if kind == "rbf_gaussian":
        return _dictionary_from_centers(np.asarray(spec["centers"]), spec["bandwidth"])
    raise ConfigurationError(f"unknown dictionary kind {kind!r}")
