"""Property test of the certified bounds beyond the linear2d benchmark.

Random stable linear systems x' = A x in two and three dimensions, with real
or complex spectra, under the identity dictionary: the exact flow is
expm(A dt), the numerical one forward Euler with a step that divides dt. For
every power p <= 10 the measured trajectory error must stay under the
closed-form bound, the continuous one for the exact eigenvector under the
Euler flow and the discrete one for a perturbed eigenvector under the exact
flow.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from koopext.core import EvalGrid, FlowedGrid
from koopext.dictionary import feature_sup_M, identity_dictionary, spectral_norm_bound_L
from koopext.dynamics import FlowMap, VectorField, integration_error_sup
from koopext.extend import (
    PowerErrors,
    bound_constant_CFG,
    continuous_bound,
    discrete_bound,
    expr_from_weights,
    monomial,
    trajectory_error,
)

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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(system=stable_systems(), dw_log10=st.floats(-8.0, -2.0), dw_seed=st.integers(0, 2**16))
def test_certified_bounds_hold_on_random_stable_linear_systems(system, dw_log10, dw_seed):
    A, dt, substeps = system
    d = A.shape[0]
    grid = EvalGrid((-1.0,) * d, (1.0,) * d, 0.1 if d == 2 else 0.25)
    field = linear_field(A)
    exact = FlowedGrid.of(FlowMap(field, dt, method="exact"), grid)
    euler = FlowedGrid.of(FlowMap(field, dt, method="euler", step=dt / substeps), grid)
    dic = identity_dictionary(d)
    eps_G = integration_error_sup(euler, exact)
    L = spectral_norm_bound_L(dic, grid)
    M = feature_sup_M(dic, grid)
    dw = np.random.default_rng(dw_seed).standard_normal(d)
    dw_norm = 10.0**dw_log10
    dw *= dw_norm / np.linalg.norm(dw)
    for lam, w in left_pairs(A, dt):
        phi_cont = expr_from_weights(dic, w, lam)
        phi_disc = expr_from_weights(dic, w + dw, lam, unit_norm=False)
        cached = PowerErrors(phi_cont, euler)
        for p in range(1, P_MAX + 1):
            # The bounds hold in exact arithmetic. The measured residual also
            # carries rounding error of the size of the values it subtracts,
            # so the test compares p-th powers (the residual norms) with that
            # allowance; after the 1/p root it would read as a visible error
            # wherever a bound is 0 (A = -I makes every vector an eigenvector).
            roundoff = 64 * np.finfo(float).eps * p * max(1.0, abs(lam) * M) ** p
            e_c = trajectory_error(monomial(phi_cont, p), euler, p)
            b_c = continuous_bound(abs(lam), M, L, eps_G, p)
            assert e_c**p <= b_c**p * (1 + 1e-9) + roundoff, (p, lam, e_c, b_c)
            e_d = trajectory_error(monomial(phi_disc, p), exact, p)
            b_d = discrete_bound(dw_norm, bound_constant_CFG(dic, exact, lam, p), p)
            assert e_d**p <= b_d**p * (1 + 1e-9) + roundoff, (p, lam, e_d, b_d)
            # the cached power loop gives the very same number
            assert cached(p)[1] == e_c
