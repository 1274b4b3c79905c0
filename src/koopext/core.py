"""Shared domain types: evaluation grids, the grid norm, principal-branch
complex powers, singular-value tagging, the CSV and JSON artifact writers and
their checked readers, and the one-BLAS-thread scope every run and tool
executes in.

Everything here is immutable after construction and safe to share. Grid
reductions go through numpy's pairwise summation, so results do not depend
on how a caller might partition the work.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericError",
    "ContractViolationError",
    "SingularInputError",
    "ConfigurationError",
    "DomainError",
    "EmptySupportError",
    "DivergenceError",
    "ConvergenceError",
    "IllConditionedError",
    "NearDefectiveError",
    "UnsupportedSystemError",
    "SINGULAR",
    "singular_mask",
    "tag_nonfinite",
    "EvalGrid",
    "FlowedGrid",
    "masked_grid_norm",
    "principal_arg",
    "principal_pow",
    "write_grid_field",
    "OpenBLAS",
    "numpy_openblas",
    "one_blas_thread",
]


class NumericError(Exception):
    """Base of the typed failures of the computation itself, which the CLI
    reports as numeric failures (exit 1), naming the error."""


class ContractViolationError(ValueError):
    """An argument violates a documented precondition (e.g. length mismatch)."""


class SingularInputError(ValueError):
    """Operation undefined at this input (e.g. log of zero)."""


class ConfigurationError(ValueError):
    """Invalid parameter combination."""


class DomainError(NumericError, ValueError):
    """Evaluation requested outside a function's declared domain."""


class EmptySupportError(NumericError, ValueError):
    """Every point was masked out; nothing left to reduce over."""


class DivergenceError(NumericError, RuntimeError):
    """A trajectory or integrand blew past the divergence guard."""


class ConvergenceError(NumericError, RuntimeError):
    """Iteration did not converge."""


class IllConditionedError(NumericError, RuntimeError):
    """Linear solve refused; message names the condition number."""


class NearDefectiveError(NumericError, RuntimeError):
    """Biorthogonal normalization failed (w^T v ~ 0); message names the index."""


class UnsupportedSystemError(ValueError):
    """The requested operation needs structure this system does not have."""


#: Tagged result for evaluating an eigenfunction at (or beyond) a singularity.
#: Kept as complex NaN rather than Inf so norms can exclude it deterministically.
SINGULAR = complex(np.nan, np.nan)

#: Guard used by integrators and averaging loops.
DIVERGENCE_LIMIT = 1e8

#: Most points an EvalGrid may hold; the largest grid a run builds has 40,401.
MAX_GRID_POINTS = 10**7

#: Most fixed steps one flow may take: an Euler flow's dt / step, or a Laplace
#: average's horizon / step. The most a run takes is 10,000 (vdp_phase at its
#: defaults: 50 periods of 200 steps).
MAX_STEPS = 10**6


def singular_mask(values) -> np.ndarray:
    """Boolean mask of singular-tagged entries."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        return np.isnan(v.real) | np.isnan(v.imag)
    return np.isnan(v)


def tag_nonfinite(values) -> np.ndarray:
    """Copy `values` as complex with every non-finite entry replaced by SINGULAR."""
    v = np.array(values, dtype=complex)
    bad = ~(np.isfinite(v.real) & np.isfinite(v.imag))
    v[bad] = SINGULAR
    return v


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """Axis-aligned uniform grid over the box [lo, hi] with spacing h.

    Points enumerate the lattice {lo + (n_1 h, ..., n_d h)} in row-major
    order (last dimension fastest), so exported CSV files are reproducible
    byte for byte. The per-axis count is floor((hi_k - lo_k)/h) + 1; the
    box is authoritative and the count is derived from it.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    spacing: float
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        h = float(self.spacing)
        if not (0.0 < h < 1.0):
            raise ConfigurationError(f"grid spacing must lie in (0, 1), got {h}")
        if len(lo) != len(hi):
            raise ConfigurationError("lo and hi must have the same dimension")
        if not all(map(math.isfinite, lo + hi)):
            raise ConfigurationError("grid corners must be finite")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ConfigurationError(f"grid box needs hi > lo on every axis, got lo = {lo}, "
                                     f"hi = {hi}")
        # 1e-9 absorbs representation error in (hi-lo)/h before flooring; the
        # counts are exact ints, or inf where (hi-lo)/h overflows
        steps = ((b - a) / h + 1e-9 for a, b in zip(lo, hi))
        counts = [math.floor(s) + 1 if math.isfinite(s) else math.inf for s in steps]
        n_points = math.prod(counts)
        if n_points > MAX_GRID_POINTS:
            raise ConfigurationError(f"grid of {n_points} points is over the "
                                     f"{MAX_GRID_POINTS}-point cap: lo = {lo}, hi = {hi}, "
                                     f"spacing = {h}")
        axes = [a + h * np.arange(n) for a, n in zip(lo, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, len(lo))
        pts.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "spacing", h)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class FlowedGrid:
    """Grid points together with their images under one time-dt flow map.

    The flow of a grid depends on the system, dt and the grid, not on the
    eigenfunction measured on it, so it is computed once (`of`) and shared by
    every error, bound and extension loop over that grid. Both arrays are
    held as read-only views.
    """

    points: np.ndarray
    image: np.ndarray
    dt: float

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float)).view()
        img = np.atleast_2d(np.asarray(self.image, dtype=float)).view()
        if pts.shape != img.shape:
            raise ContractViolationError(
                f"image shape {img.shape} does not match points shape {pts.shape}"
            )
        for a in (pts, img):
            a.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "image", img)

    @classmethod
    def of(cls, flow, grid: EvalGrid) -> "FlowedGrid":
        """Flow every grid point once with `flow` (a FlowMap or anything with
        a `dt` that maps an (n, d) batch to an (n, d) batch)."""
        return cls(grid.points, flow(grid.points), flow.dt)

    def __len__(self) -> int:
        return self.points.shape[0]


def masked_grid_norm(values) -> tuple[float, int]:
    """Root-mean-square of the non-singular entries of `values`; complex
    entries contribute their modulus.

    Returns (norm, number of excluded points). The mean runs over the
    surviving points only. Raises EmptySupportError when the input is empty
    or nothing survives. The singular mask is computed once; when it excludes
    nothing, the mean reads `values` as given instead of a copy of the same
    entries in the same order.
    """
    v = np.asarray(values)
    if v.size == 0:
        raise EmptySupportError("empty value set: the grid has no points")
    bad = singular_mask(v)
    n_excluded = int(np.count_nonzero(bad))
    if n_excluded == v.shape[0]:
        raise EmptySupportError("all grid points are singular-tagged")
    kept = v[~bad] if n_excluded else v
    norm = float(np.sqrt(np.mean(np.abs(kept) ** 2)))
    return norm, n_excluded


def principal_arg(z) -> np.ndarray | float:
    """Argument in (-pi, pi]; the branch edge -pi is folded onto +pi."""
    a = np.angle(np.asarray(z, dtype=complex))
    a = np.where(a == -np.pi, np.pi, a)
    return a if a.ndim else float(a)


def principal_pow(z, alpha: float):
    """z**alpha through the principal branch: exp(alpha (ln|z| + i principal_arg(z))).

    z = 0 is allowed only for alpha > 0 (result 0). Integer alpha agrees with
    repeated multiplication to roundoff. Scalar or elementwise on arrays.
    """
    zz = np.asarray(z, dtype=complex)
    zero = zz == 0
    if np.any(zero) and alpha <= 0:
        raise SingularInputError(f"0**{alpha} is undefined for alpha <= 0")
    with np.errstate(divide="ignore"):
        logz = np.where(zero, 0.0, np.log(np.abs(zz))) + 1j * np.asarray(principal_arg(zz))
    out = np.exp(alpha * logz)
    out = np.where(zero, 0.0, out)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# CSV artifacts: a header line (none for model matrices), then one row per
# record at 17 significant digits. Grid fields list the grid points in
# enumeration order, x1,...,xd,re,im.


def _write_csv(path, header, table, newline: str = "\n") -> None:
    """Write the 2-D `table` under a header line naming its columns, every
    entry with %.17g; an empty `header` writes no header line."""
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(header),
               comments="", newline=newline)


def _write_json(path, payload, sort_keys: bool) -> None:
    """Write `payload` as a JSON artifact indented by 2, its keys sorted when
    `sort_keys`."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)


def _read_csv(path, skiprows: int = 0) -> np.ndarray:
    """The 2-D table of numbers at `path` below its `skiprows` header lines; a
    file that cannot be read or is not one (a ragged row, a word among the
    numbers, no row at all) is refused, naming it."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "loadtxt: input contained no data")
            return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigurationError(f"{path} is not a table of numbers: {exc}") from None


# ---------------------------------------------------------------------------
# Records read from outside: runner parameters, config.json, the snapshot and
# model sidecars and dictionary specs. Each has one table {key: (default,
# domain)}, which `_check_record` holds it to; a _REQUIRED key has no default.

_REQUIRED = object()

# JSON type names of values, bool before int since bool subclasses it
_JSON_TYPES = ((bool, "boolean"), (int, "integer"), (float, "number"), (str, "string"),
               ((list, tuple), "array"), (dict, "object"), (type(None), "null"))


def _json_type(value) -> str:
    return next((name for kind, name in _JSON_TYPES if isinstance(value, kind)),
                type(value).__name__)


def _is_number(value) -> bool:
    """A finite JSON number a float holds: no boolean, Infinity, NaN or huge integer."""
    return _json_type(value) in ("integer", "number") and abs(value) <= sys.float_info.max


def _is_point(value) -> bool:
    return _json_type(value) == "array" and len(value) == 2 and all(map(_is_number, value))


@dataclass(frozen=True)
class _Domain:
    """One kind of domain: what a value must be, as --help and a refusal say
    it, and `holds(value) -> bool`, the predicate it must meet, JSON type and all."""

    says: str
    holds: object


_NUMBER = _Domain("a finite number", _is_number)
_AT_LEAST_0, _AT_LEAST_1, _AT_LEAST_2, _AT_LEAST_3 = (_Domain(
    f"an integer >= {n}", lambda v, n=n: _is_number(v) and _json_type(v) == "integer" and v >= n)
    for n in range(4))
_POSITIVE = _Domain("a finite positive number", lambda v: _is_number(v) and v > 0)
_NONNEGATIVE = _Domain("a finite nonnegative number", lambda v: _is_number(v) and v >= 0)
_UNIT_OPEN = _Domain("a number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1)  # EvalGrid's h
_NULL_OR_POSITIVE = _Domain("null or a finite positive number",
                            lambda v: v is None or _POSITIVE.holds(v))
_POSITIVE_NUMBERS = _Domain("a non-empty array of finite positive numbers",
                            lambda v: _json_type(v) == "array" and len(v) >= 1
                            and all(map(_POSITIVE.holds, v)))
_POINT = _Domain("two finite numbers [x, y]", _is_point)
_INTERVAL = _Domain("two finite numbers [lo, hi] with lo < hi",
                    lambda v: _is_point(v) and v[0] < v[1])
_CORNERS = _Domain("two corners [[x_lo, y_lo], [x_hi, y_hi]] of finite numbers with lo < hi",
                   lambda v: _json_type(v) == "array" and len(v) == 2 and all(map(_is_point, v))
                   and all(a < b for a, b in zip(*v)))
_STRING = _Domain("a JSON string", lambda v: _json_type(v) == "string")
_OBJECT = _Domain("a JSON object", lambda v: _json_type(v) == "object")


def _check_record(name: str, record, table: dict, closed: bool = True) -> dict:
    """`record` with the defaults of the keys it lacks, refused, naming `name`
    and the key, unless it is an object with every _REQUIRED key, no key
    outside `table` if `closed`, and each value inside its domain (type and all)."""
    if not _OBJECT.holds(record):
        raise ConfigurationError(f"{name} must be {_OBJECT.says}, got {json.dumps(record)}")
    if closed and set(record) - set(table):
        raise ConfigurationError(f"{name}: unknown keys {sorted(set(record) - set(table))}")
    merged = {key: default for key, (default, _) in table.items() if default is not _REQUIRED}
    merged.update(record)
    missing = [key for key in table if key not in merged]
    if missing:
        raise ConfigurationError(f"{name} holds no {missing}")
    for key, (_, domain) in table.items():
        if not domain.holds(merged[key]):
            raise ConfigurationError(f"{name}: {key} must be {domain.says}, got "
                                     f"{json.dumps(merged[key])}")
    return merged


def _read_record(path, table: dict, closed: bool = True) -> dict:
    """The JSON object at `path`, checked against `table` by `_check_record`; a
    file that cannot be opened or decoded as JSON is refused, naming it."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read {path} as JSON: {exc}") from None
    return _check_record(str(path), record, table, closed)


def write_grid_field(path, grid: EvalGrid, values) -> None:
    v = np.asarray(values, dtype=complex)
    if v.shape[0] != len(grid):
        raise ContractViolationError("field length does not match grid")
    header = [f"x{k + 1}" for k in range(grid.dim)] + ["re", "im"]
    _write_csv(path, header, np.column_stack([grid.points, v.real, v.imag]), newline="\r\n")


# ---------------------------------------------------------------------------
# BLAS threads. The pipeline is a chain of small products on grids of about
# 10^4 points: waking an OpenBLAS worker for each costs more than the product,
# and a threaded product sums in another order, so with one thread per core
# the artifact bytes would depend on the machine's core count.


@dataclass(frozen=True)
class OpenBLAS:
    """A bundled OpenBLAS, reached through the `scipy_openblas_*` functions
    it exports; numpy's 64-bit-integer build suffixes their names with
    `64_`."""

    lib: ctypes.CDLL
    suffix: str

    def function(self, name: str, restype, *argtypes):
        """The exported `scipy_openblas_<name>`, typed to return `restype`."""
        fn = getattr(self.lib, f"scipy_openblas_{name}{self.suffix}")
        fn.restype, fn.argtypes = restype, argtypes
        return fn

    def threads(self) -> int:
        return self.function("get_num_threads", ctypes.c_int)()

    def set_threads(self, n: int) -> None:
        self.function("set_num_threads", None, ctypes.c_int)(n)


@functools.cache
def numpy_openblas() -> OpenBLAS | None:
    """The OpenBLAS that numpy bundles; None when numpy is built on another
    BLAS, which exports no such thread getter and setter. Looked up on the
    first call, never at import."""
    for path in sorted(glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*")):
        lib = ctypes.CDLL(path)
        suffix = next((s for s in ("64_", "") if all(
            hasattr(lib, f"scipy_openblas_{fn}_num_threads{s}") for fn in ("get", "set")
        )), None)
        if suffix is not None:
            return OpenBLAS(lib, suffix)
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with one thread in numpy's bundled OpenBLAS, then give it
    back the thread count it had, also when the body raises. The count is
    process-wide, so a thread that runs BLAS beside the body runs on one
    thread too. With no OpenBLAS found the body runs at the caller's thread
    count."""
    lib = numpy_openblas()
    if lib is None:
        yield
        return
    before = lib.threads()
    lib.set_threads(1)
    try:
        yield
    finally:
        lib.set_threads(before)
