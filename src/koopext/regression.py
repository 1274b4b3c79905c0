"""Least-squares fitting of the Koopman matrix from snapshot pairs (DMD/EDMD),
plus trajectory prediction and model serialization.

Convention fixed across the package: the fitted K advances feature vectors,
Psi(y) ~= K Psi(x), and eigenfunction weights are LEFT eigenvectors,
w^T K = lambda w^T, so that phi(x) = w^T Psi(x) satisfies phi(F x) ~= lambda phi(x).
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigurationError, IllConditionedError, _write_csv, _write_json
from .dictionary import Dictionary, dictionary_from_spec
from .dynamics import SnapshotSet

__all__ = ["KoopmanModel", "fit_edmd", "predict", "save_model", "load_model"]

_SVD_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class KoopmanModel:
    dict: Dictionary
    K: np.ndarray
    dt: float
    fit_residual: float
    decoder: np.ndarray = field(repr=False, default=None)

    @property
    def dim(self) -> int:
        return self.K.shape[0]


def fit_edmd(data: SnapshotSet, dic: Dictionary, ridge: float = 0.0) -> KoopmanModel:
    """Fit K minimizing sum_k |Psi(y_k) - K Psi(x_k)|^2 (+ ridge penalty).

    Solves the normal equations (G + ridge I) K^T = A with
    G = sum Psi(x) Psi(x)^T / n and A = sum Psi(x) Psi(y)^T / n through an
    SVD of G. With ridge = 0 a rank-deficient G is refused rather than
    silently projected.
    """
    if ridge < 0:
        raise ConfigurationError("ridge must be nonnegative")
    if len(data.x) == 0:
        raise ConfigurationError("no snapshot pairs to fit")
    PX = dic.eval(data.x)
    PY = dic.eval(data.y)
    n, D = PX.shape
    if n < D:
        warnings.warn(
            f"only {n} snapshot pairs for a {D}-dimensional dictionary; "
            "the fit is underdetermined"
        )
    G = PX.T @ PX / n
    A = PX.T @ PY / n
    U, s, _ = np.linalg.svd(G, hermitian=True)
    if ridge == 0.0 and (s[-1] <= _SVD_CUTOFF * s[0] or s[0] == 0.0):
        cond = np.inf if s[-1] == 0 else s[0] / s[-1]
        raise IllConditionedError(
            f"feature Gram matrix is rank deficient (condition number {cond:.3e}); "
            "add ridge regularization or enrich the data"
        )
    inv = U @ np.diag(1.0 / (s + ridge)) @ U.T
    # C-contiguous so matmul reduction order matches a reloaded model bitwise
    K = np.ascontiguousarray((inv @ A).T)
    resid = float(np.sqrt(np.mean(np.sum((PY - PX @ K.T) ** 2, axis=1))))
    # linear decoder back to states, exact for the identity dictionary
    if dic.spec["kind"] == "identity":
        decoder = np.eye(D)
    else:
        decoder, *_ = np.linalg.lstsq(PX, data.x, rcond=None)
        decoder = decoder.T
    return KoopmanModel(dict=dic, K=K, dt=float(data.dt), fit_residual=resid, decoder=decoder)


def predict(model: KoopmanModel, x0, n_steps: int) -> np.ndarray:
    """Iterate the feature vector under K and decode states.

    Returns an (n_steps + 1, d) array starting at x0.
    """
    if model.decoder is None:
        raise ConfigurationError("model has no decoder; cannot map features to states")
    if n_steps < 0:
        raise ConfigurationError("n_steps must be >= 0")
    x0 = np.asarray(x0, dtype=float)
    out = [x0]
    z = model.dict.eval(x0[None, :])[0]
    for _ in range(n_steps):
        z = model.K @ z
        out.append(model.decoder @ z)
    return np.asarray(out)


def save_model(path_stem: str, model: KoopmanModel) -> None:
    """Write <stem>.json (dictionary spec, dt, residual) and <stem>_K.csv."""
    sidecar = {
        "dt": model.dt,
        "fit_residual": model.fit_residual,
        "dictionary": model.dict.spec,
    }
    _write_json(f"{path_stem}.json", sidecar, sort_keys=True)
    _write_csv(f"{path_stem}_K.csv", [], model.K)
    if model.decoder is not None:
        _write_csv(f"{path_stem}_decoder.csv", [], model.decoder)


def load_model(path_stem: str) -> KoopmanModel:
    import os

    with open(f"{path_stem}.json") as fh:
        sidecar = json.load(fh)
    dic = dictionary_from_spec(sidecar["dictionary"])
    K = np.loadtxt(f"{path_stem}_K.csv", delimiter=",", ndmin=2)
    dec_path = f"{path_stem}_decoder.csv"
    decoder = np.loadtxt(dec_path, delimiter=",", ndmin=2) if os.path.exists(dec_path) else None
    return KoopmanModel(
        dict=dic,
        K=K,
        dt=float(sidecar["dt"]),
        fit_residual=float(sidecar["fit_residual"]),
        decoder=decoder,
    )
