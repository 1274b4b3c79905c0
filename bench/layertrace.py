"""Outside-in layer tracing for the koopext benchmark.

The tracer times each layer from outside the program: it replaces the public
functions of the eight layer modules (and a few public methods) with thin
wrappers, in every ``koopext`` module that bound them, and restores the
originals afterwards. No file under ``src/`` knows about it.

Each wrapped call is a span. A span's self time is its duration minus the time
its child spans cover, so the self times of all spans plus the runner's own
time add up to the op's wall time. Functions called more than about 1e4 times
per op get a call counter instead of a span, which keeps the trace cheap.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("core", "dynamics", "dictionary", "regression", "eigensolve", "extend", "bridge",
          "phase")

# Public methods that carry layer work; every public module-level function of a
# layer is wrapped as well.
METHODS = {
    "core": ("EvalGrid.__post_init__",),
    "dynamics": ("FlowMap.__call__",),
    "dictionary": ("Dictionary.eval", "Dictionary.jacobian"),
    "extend": ("EigenfunctionExpr.eval", "DictionaryEigenfunction.eval"),
}

# Called 1e4-1e6 times per op by the Arnoldi power loop: counted, not timed.
# Their time lands in the caller's self time. The same holds for the vector
# field's rhs, a closure that is counted on every system make_system returns.
COUNTED = frozenset({"eigensolve.eigen2d", "eigensolve.eigvector2d"})

# Per-layer metric -> the spans whose self time it sums.
SELF_TIME_GROUPS = {
    "eigensolve.solve_s": ("eigensolve.*",),
    "dynamics.flow_s": ("dynamics.FlowMap.__call__", "dynamics.flow",
                        "dynamics.integration_error_sup"),
    "dynamics.dp45_s": ("dynamics.dp45", "dynamics.dp45_fixed"),
    "dynamics.sample_s": ("dynamics.sample_snapshots", "dynamics.transform_snapshots",
                          "dynamics.unstable_manifold_sample"),
    "extend.traj_error_s": ("extend.trajectory_error", "extend.trajectory_error_detailed",
                            "extend.truth_error", "extend.truth_error_report"),
    "extend.bound_s": ("extend.bound_constant_CFG", "extend.continuous_bound",
                       "extend.discrete_bound"),
    "extend.loop_s": ("extend.extend_continuous", "extend.extend_discrete",
                      "extend.iterative_koopman_eigensolver"),
    "extend.expr_eval_s": ("extend.EigenfunctionExpr.eval",
                           "extend.DictionaryEigenfunction.eval"),
    "phase.period_s": ("phase.limit_cycle_period",),
    "phase.laplace_s": ("phase.laplace_average_batch", "phase.laplace_average"),
    "phase.isofield_s": ("phase.isofield",),
    "dictionary.build_s": ("dictionary.identity_dictionary", "dictionary.monomial_dictionary",
                           "dictionary.kmeans_centers", "dictionary.rbf_dictionary",
                           "dictionary.dictionary_from_spec", "dictionary.dictionary_from_json"),
    "dictionary.eval_s": ("dictionary.Dictionary.eval", "dictionary.Dictionary.jacobian"),
    "dictionary.constants_s": ("dictionary.spectral_norm_bound_L", "dictionary.feature_sup_M"),
    "regression.fit_s": ("regression.fit_edmd",),
    "regression.save_s": ("regression.save_model",),
    "bridge.family_s": ("bridge.fit_local_family",),
    "bridge.fit_s": ("bridge.fit_bridge",),
    # every CSV writer of the layers, the ones ROADMAP item 4 merges
    "core.csv_write_s": ("core.write_grid_field", "phase.write_phase_csv",
                         "dynamics.write_snapshots", "eigensolve.write_eigenvectors_csv"),
    "core.grid_norm_s": ("core.grid_norm", "core.masked_grid_norm"),
}

# Per-layer metric -> the span or counter whose calls it counts.
CALL_COUNTS = {
    "eigensolve.solve_calls": "eigensolve.power_iteration_complex",
    "eigensolve.extractions": "eigensolve.eigvector2d",
    "dynamics.flow_calls": "dynamics.FlowMap.__call__",
    "extend.traj_error_calls": "extend.trajectory_error_detailed",
    "phase.period_calls": "phase.limit_cycle_period",
    "dynamics.rhs_calls": "dynamics.rhs",
}

# Spans whose arguments or result feed a metric beyond time and calls.
OBSERVED = frozenset({"dynamics.FlowMap.__call__", "dictionary.Dictionary.eval",
                      "eigensolve.power_iteration_complex", "dynamics.make_system"})


def _rows(points) -> int:
    return int(np.atleast_2d(np.asarray(points)).shape[0])


class Tracer:
    """Spans and counters of the layer calls made while it is installed."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.flow_points = 0
        self.eval_points = 0
        self.residual_max = 0.0
        # child-time accumulators of the open spans; [0] is the op itself
        self._open = [0.0]

    # -- wrappers -----------------------------------------------------------

    def _observe(self, name, args, result) -> None:
        if name == "dynamics.FlowMap.__call__":
            self.flow_points += _rows(args[1])
        elif name == "dictionary.Dictionary.eval":
            self.eval_points += _rows(args[1])
        elif name == "dynamics.make_system":
            # a fresh system per call, so the counting rhs dies with the op
            field = result.field
            object.__setattr__(field, "rhs", self.counter("dynamics.rhs", field.rhs))
        else:  # eigensolve.power_iteration_complex
            norm_a = max(float(np.linalg.norm(args[0])), 1e-300)
            self.residual_max = max(self.residual_max, result.residual / norm_a)

    def span(self, name: str, fn):
        observed = name in OBSERVED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = self._open.pop()
                self._open[-1] += dur
                self.self_s[name] += dur - child
                self.calls[name] += 1
            if observed:
                self._observe(name, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ------------------------------------------------------------

    def covered_s(self) -> float:
        """Total duration of the outermost spans, i.e. the sum of all self times."""
        return self._open[0]

    def metrics(self, op_wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one op that took `op_wall_s` seconds."""
        out: dict[str, float] = {}
        for metric, patterns in SELF_TIME_GROUPS.items():
            out[metric] = sum(t for n, t in self.self_s.items() if _matches(n, patterns))
        for metric, name in CALL_COUNTS.items():
            out[metric] = self.calls[name]
        out["dynamics.flow_points"] = self.flow_points
        out["dictionary.eval_points"] = self.eval_points
        out["eigensolve.residual_max"] = self.residual_max
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for n, t in self.self_s.items() if n.split(".", 1)[0] == layer
            )
        out["experiments.self_s"] = op_wall_s - self.covered_s()
        return out


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".*") and name.startswith(p[:-1])) for p in patterns)


def traced_names() -> dict[str, tuple[object, str, object]]:
    """Span/counter name -> (owner, attribute, original) for every wrapped callable."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"koopext.{layer}")
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(val)
                    and val.__module__ == mod.__name__):
                found[f"{layer}.{attr}"] = (mod, attr, val)
        for dotted in METHODS.get(layer, ()):
            cls_name, meth = dotted.split(".")
            cls = getattr(mod, cls_name)
            found[f"{layer}.{dotted}"] = (cls, meth, cls.__dict__[meth])
    return found


def _koopext_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "koopext" or n.startswith("koopext."))]


@contextmanager
def installed(tracer: Tracer):
    """Route every layer call through `tracer` until the block exits.

    Functions are replaced wherever a koopext module holds them: as the
    defining module's attribute, as a name bound by ``from .x import name``,
    or as a value of a module-level dict. Methods are replaced on their class.
    """
    patches = []  # (owner, key, original, wrapped)
    by_original = {}
    for name, (owner, attr, original) in traced_names().items():
        wrap = tracer.counter if name in COUNTED else tracer.span
        wrapped = wrap(name, original)
        if inspect.isclass(owner):
            patches.append((owner, attr, original, wrapped))
        else:
            by_original[id(original)] = (original, wrapped)
    for mod in _koopext_modules():
        for attr, val in list(vars(mod).items()):
            hit = by_original.get(id(val))
            if hit is not None and hit[0] is val:
                patches.append((mod, attr, val, hit[1]))
            elif isinstance(val, dict):
                for key, item in val.items():
                    hit = by_original.get(id(item))
                    if hit is not None and hit[0] is item:
                        patches.append((val, key, item, hit[1]))
    try:
        for owner, attr, _, wrapped in patches:
            _set(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original, _ in reversed(patches):
            _set(owner, attr, original)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
