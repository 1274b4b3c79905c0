"""Property tests of the certified bounds beyond the linear2d benchmark.

Random stable linear systems x' = A x in two and three dimensions, with real
or complex spectra, under the identity dictionary: the exact flow is
expm(A dt), the numerical one forward Euler with a step that divides dt. For
every power p <= 10 the trajectory error the extension loops measure must
stay under the bound they certify, the continuous one for the exact
eigenvector under the Euler flow and the discrete one for a perturbed
eigenvector under the exact flow. At a finite epsilon, each loop must emit
exactly the powers whose certified bound is <= epsilon.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from koopext.core import EvalGrid, FlowedGrid
from koopext.dictionary import feature_sup_M, identity_dictionary, spectral_norm_bound_L
from koopext.dynamics import FlowMap, VectorField, integration_error_sup
from koopext.extend import (
    _BoundConstants,
    continuous_bound,
    discrete_bound,
    extend_continuous,
    extend_discrete,
)
from koopext.regression import KoopmanModel

P_MAX = 10
RATE = st.floats(-1.5, -0.1)


@st.composite
def stable_systems(draw):
    """(A, dt, euler_substeps): A = V B V^-1 with B block diagonal and stable."""
    d = draw(st.sampled_from([2, 3]))
    complex_pair = draw(st.booleans())
    B = np.zeros((d, d))
    k = 0
    if complex_pair:
        sigma, omega = draw(RATE), draw(st.floats(0.2, 2.0))
        B[:2, :2] = [[sigma, omega], [-omega, sigma]]
        k = 2
    for i in range(k, d):
        B[i, i] = draw(RATE)
    # a diagonally dominant basis keeps V well conditioned
    off = np.array(draw(st.lists(st.floats(-0.9, 0.9), min_size=d * d, max_size=d * d)))
    V = 3.0 * np.eye(d) + off.reshape(d, d)
    A = V @ B @ np.linalg.inv(V)
    dt = draw(st.floats(0.05, 0.5))
    substeps = draw(st.integers(5, 50))
    return A, dt, substeps


def linear_field(A):
    return VectorField(
        A.shape[0],
        rhs=lambda x: x @ A.T,
        exact_flow=lambda x, t: x @ expm(A * t).T,
    )


def left_pairs(A, dt):
    """(multiplier exp(mu dt), unit left eigenvector) for each eigenvalue mu of A."""
    mus, W = np.linalg.eig(A.T)
    return [(complex(np.exp(mu * dt)), W[:, j] / np.linalg.norm(W[:, j]))
            for j, mu in enumerate(mus)]


def linear_case(system, dw_log10, dw_seed):
    """The flowed grids, bound constants and perturbation of one drawn system."""
    A, dt, substeps = system
    d = A.shape[0]
    grid = EvalGrid((-1.0,) * d, (1.0,) * d, 0.1 if d == 2 else 0.25)
    field = linear_field(A)
    exact = FlowedGrid.of(FlowMap(field, dt, method="exact"), grid)
    euler = FlowedGrid.of(FlowMap(field, dt, method="euler", step=dt / substeps), grid)
    dic = identity_dictionary(d)
    model = KoopmanModel(dict=dic, K=expm(A * dt), dt=dt, fit_residual=0.0)
    eps_G = integration_error_sup(euler, exact)
    L = spectral_norm_bound_L(dic, grid)
    M = feature_sup_M(dic, grid)
    dw = np.random.default_rng(dw_seed).standard_normal(d)
    dw_norm = 10.0**dw_log10
    dw *= dw_norm / np.linalg.norm(dw)
    return model, exact, euler, eps_G, L, M, dw, dw_norm


@settings(max_examples=30, deadline=None, derandomize=True)
@given(system=stable_systems(), dw_log10=st.floats(-8.0, -2.0), dw_seed=st.integers(0, 2**16))
def test_certified_bounds_hold_on_random_stable_linear_systems(system, dw_log10, dw_seed):
    model, exact, euler, eps_G, L, M, dw, dw_norm = linear_case(system, dw_log10, dw_seed)
    for lam, w in left_pairs(*system[:2]):
        cont = extend_continuous((w, lam), model, euler, math.inf, eps_G, L, M, p_max=P_MAX)
        disc = extend_discrete((w + dw, lam), model, exact, math.inf, dw_norm, p_max=P_MAX)
        assert len(cont) == len(disc) == P_MAX
        for c, d in zip(cont.extensions, disc.extensions, strict=True):
            p = c.power
            # The bounds hold in exact arithmetic. The measured residual also
            # carries rounding error of the size of the values it subtracts,
            # so the test compares p-th powers (the residual norms) with that
            # allowance; after the 1/p root it would read as a visible error
            # wherever a bound is 0 (A = -I makes every vector an eigenvector).
            roundoff = 64 * np.finfo(float).eps * p * max(1.0, abs(lam) * M) ** p
            for e in (c, d):
                assert e.trajectory_error**p <= e.bound**p * (1 + 1e-9) + roundoff, (
                    p, lam, e.trajectory_error, e.bound)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(system=stable_systems(), dw_log10=st.floats(-8.0, -2.0), dw_seed=st.integers(0, 2**16),
       eps_log10=st.floats(-5.0, 0.0))
def test_loops_emit_exactly_the_powers_whose_bound_is_within_epsilon(
    system, dw_log10, dw_seed, eps_log10
):
    model, exact, euler, eps_G, L, M, dw, dw_norm = linear_case(system, dw_log10, dw_seed)
    eps = 10.0**eps_log10
    for lam, w in left_pairs(*system[:2]):
        cfg_of = _BoundConstants(model.dict, exact, lam)
        cont = extend_continuous((w, lam), model, euler, eps, eps_G, L, M, p_max=P_MAX,
                                 measure_errors=False)
        disc = extend_discrete((w + dw, lam), model, exact, eps, dw_norm, p_max=P_MAX)
        for res, bound_of in (
            (cont, lambda p: continuous_bound(abs(lam), M, L, eps_G, p)),
            (disc, lambda p: discrete_bound(dw_norm, cfg_of(p), p)),
        ):
            assert [e.power for e in res.extensions] == list(range(1, len(res) + 1))
            # no slack: every emitted bound is within epsilon as it is
            assert all(e.bound == bound_of(e.power) <= eps for e in res.extensions)
            if len(res) < P_MAX:
                refused = len(res) + 1
                assert bound_of(refused) > eps
                assert res.status.startswith("empty: p=1 already violates" if refused == 1
                                             else f"budget exceeded at p={refused}")
            else:
                assert "never exceeded" in res.status
