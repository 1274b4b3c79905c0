"""Every closed-form flow, wherever a grid or a sampler can reach it.

The certified bounds measure their integration error eps_G against
`FlowMap(..., method="exact")`, and the sampler uses the exact flow whenever
a system has one, so these flows are the truth the certificates rest on.
Each system with an `exact_flow` is started from uniform points in a box of
its domain and from points 1e-14 to 1e-2 from each of its steady states, and
flowed for t up to 20. Every start either returns finite values or raises one
of the package's typed errors (an escape is a DivergenceError).

Bounds, both in the max norm and relative to 1 + |F^t(x)|:
- the semigroup property F^(0.7 t)(F^(0.3 t)(x)) = F^t(x) holds within 1e-9
  (the worst gap on these starts is 8.6e-11, quad1d at t = 20 from 1e-14
  off its unstable state 3, where the flow magnifies the rounding of the
  inner step);
- dp45 at rel_tol 1e-12, abs_tol 1e-14 agrees within 1e-9 for t <= 1 (worst
  4.0e-11, cubic1d at t = 1). Longer horizons are left out, as the
  gap of a fixed-tolerance integration grows with t.
"""
import warnings

import numpy as np
import pytest

from koopext import core
from koopext.dynamics import _FACTORIES, FlowMap, dp45, make_system

TYPED = (core.NumericError, core.ConfigurationError, core.ContractViolationError,
         core.SingularInputError, core.UnsupportedSystemError)
# uniform start boxes, inside each system's domain (softplus2d lives on z > 0
# and saddle2d on z > -1); the 1-D boxes straddle every steady state
BOXES = {
    "cubic1d": ((-0.99,), (2.99,)),
    "quad1d": ((1.0,), (4.0,)),
    "linear2d": ((-2.0, -2.0), (2.0, 2.0)),
    "softplus2d": ((0.05, 0.05), (3.0, 3.0)),
    "lin5d": ((-1.0,) * 5, (1.0,) * 5),
    "polarLC": ((-2.0, -2.0), (2.0, 2.0)),
    "saddle2d": ((-0.9, -0.9), (2.0, 2.0)),
    "bistable2d": ((-1.0, -1.0), (1.0, 1.0)),
}
OFFSETS = 10.0 ** np.arange(-14, -1, 2)
TOL = 1e-9


def test_every_system_with_a_closed_form_flow_is_covered():
    assert sorted(BOXES) == sorted(
        sid for sid in _FACTORIES if make_system(sid).field.exact_flow is not None)


def start_points(system) -> np.ndarray:
    """30 uniform points in the system's box, then each steady state offset
    by 1e-14 to 1e-2 both ways along a seeded unit direction."""
    rng = np.random.default_rng(sorted(BOXES).index(system.id))
    lo, hi = map(np.array, BOXES[system.id])
    pts = [rng.uniform(lo, hi, size=(30, system.dim))]
    for ss in system.steady_states:
        u = rng.standard_normal(system.dim)
        u /= np.linalg.norm(u)
        pts += [ss + OFFSETS[:, None] * u, ss - OFFSETS[:, None] * u]
    return np.vstack(pts)


def exact(system, x, t):
    """F^t(x) for one start, or None when the flow refuses it with a typed
    error; any other exception, a warning included, fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = FlowMap(system.field, t, method="exact")(x)
    except TYPED:
        return None
    assert np.all(np.isfinite(y))
    return y


def gap(a, b) -> float:
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("system_id", sorted(BOXES))
def test_semigroup_property(system_id, t):
    system = make_system(system_id)
    pts = start_points(system)
    flowed = 0
    for x in pts:
        y = exact(system, x, t)
        if y is None:
            continue
        # a start that reaches t reaches 0.3 t, and from there the rest
        mid = exact(system, x, 0.3 * t)
        assert mid is not None
        y2 = exact(system, mid, t - 0.3 * t)
        assert y2 is not None
        assert gap(y2, y) <= TOL, (x, t)
        flowed += 1
    # no start escapes within the shortest horizon
    assert flowed == len(pts) if t == 0.1 else flowed > 0


@pytest.mark.parametrize("t", [0.1, 1.0])
@pytest.mark.parametrize("system_id", sorted(BOXES))
def test_agrees_with_dp45_on_short_horizons(system_id, t):
    system = make_system(system_id)
    pts = np.array([x for x in start_points(system) if exact(system, x, t) is not None])
    want = FlowMap(system.field, t, method="exact")(pts)
    got = dp45(system.field.rhs, pts, t, rel_tol=1e-12, abs_tol=1e-14)
    assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= TOL
