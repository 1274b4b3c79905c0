"""Least-squares fitting of the Koopman matrix from snapshot pairs (DMD/EDMD),
and model serialization.

Convention fixed across the package: the fitted K advances feature vectors,
Psi(y) ~= K Psi(x), and eigenfunction weights are LEFT eigenvectors,
w^T K = lambda w^T, so that phi(x) = w^T Psi(x) satisfies phi(F x) ~= lambda phi(x).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (_NONNEGATIVE, _OBJECT, _POSITIVE, _REQUIRED, ConfigurationError,
                   IllConditionedError, _read_csv, _read_record, _write_csv, _write_json)
from .dictionary import Dictionary, dictionary_from_spec
from .dynamics import SnapshotSet

__all__ = ["KoopmanModel", "fit_edmd", "save_model", "load_model"]

_SVD_CUTOFF = 1e-12


@dataclass(frozen=True, eq=False)
class KoopmanModel:
    dict: Dictionary
    K: np.ndarray
    dt: float
    fit_residual: float

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
    if not 0 <= ridge < np.inf:
        raise ConfigurationError(f"ridge must be a finite nonnegative number, got {ridge}")
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
    # the residual PY - PX K^T squared in one array, in the order of the formula
    R = PX @ K.T
    np.square(np.subtract(PY, R, out=R), out=R)
    resid = float(np.sqrt(np.mean(np.sum(R, axis=1))))
    return KoopmanModel(dict=dic, K=K, dt=float(data.dt), fit_residual=resid)


def save_model(path_stem: str, model: KoopmanModel) -> None:
    """Write <stem>.json (dictionary spec, dt, residual) and <stem>_K.csv."""
    sidecar = {
        "dt": model.dt,
        "fit_residual": model.fit_residual,
        "dictionary": model.dict.spec,
    }
    _write_json(f"{path_stem}.json", sidecar, sort_keys=True)
    _write_csv(f"{path_stem}_K.csv", [], model.K)


_MODEL_TABLE = {
    "dictionary": (_REQUIRED, _OBJECT),
    "dt": (_REQUIRED, _POSITIVE),
    "fit_residual": (_REQUIRED, _NONNEGATIVE),
}


def load_model(path_stem: str) -> KoopmanModel:
    """Read what `save_model` wrote: <stem>.json and <stem>_K.csv. A sidecar
    or dictionary spec outside its table, and a K that is not finite or not
    square in the dictionary's feature count, are refused, naming the file."""
    sidecar = _read_record(f"{path_stem}.json", _MODEL_TABLE)
    dic = dictionary_from_spec(sidecar["dictionary"], f"{path_stem}.json: dictionary")
    K = _read_csv(f"{path_stem}_K.csv")
    n = dic.eval(np.zeros(dic.dim_in)).shape[1]
    if K.shape != (n, n):
        raise ConfigurationError(f"{path_stem}_K.csv: K is {K.shape[0]}x{K.shape[1]}, but the "
                                 f"model's dictionary has {n} features")
    if not np.all(np.isfinite(K)):
        raise ConfigurationError(f"{path_stem}_K.csv: K holds a non-finite value")
    return KoopmanModel(dict=dic, K=K, dt=sidecar["dt"], fit_residual=sidecar["fit_residual"])
