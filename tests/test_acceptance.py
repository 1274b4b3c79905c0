"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them live)."""
import math

import numpy as np
import pytest

from koopext.core import EvalGrid, FlowedGrid
from koopext.dictionary import (
    feature_sup_M,
    identity_dictionary,
    rbf_dictionary,
    spectral_norm_bound_L,
)
from koopext.dynamics import (
    FlowMap,
    integration_error_sup,
    make_system,
    sample_snapshots,
    softplus,
    transform_snapshots,
)
from koopext.eigensolve import (
    deflate_spectrum,
    eigentriplets,
    qr_iteration,
    quasi_triangular_eigenvalues,
)
from koopext.extend import (
    PowerErrors,
    certify_on_grid,
    expr_from_analytic,
    expr_from_weights,
    extend_continuous,
    extend_discrete,
    monomial,
    normalize_to_grid,
    principal_filter,
)
from koopext.bridge import continue_across, fit_bridge
from koopext.experiments import ExperimentConfig, run
from koopext.regression import fit_edmd


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number} ({name}): {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def linear2d_setup():
    sys_ = make_system("linear2d")
    snaps = sample_snapshots(sys_, 400, 0.2, ((-2, -2), (2, 2)), seed=42)
    model = fit_edmd(snaps, identity_dictionary(2))
    grid = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.01)
    exact = FlowedGrid.of(FlowMap(sys_.field, 0.2, method="exact"), grid)
    euler = FlowedGrid.of(FlowMap(sys_.field, 0.2, method="euler", step=0.001), grid)
    eps_G = integration_error_sup(euler, exact)
    return sys_, model, grid, exact, euler, eps_G


def run_values(tmp_path_factory, experiment: str, seed: int) -> dict:
    """The summary rows of one runner at `seed` and its defaults, by name."""
    out = tmp_path_factory.mktemp(experiment)
    summary = run(ExperimentConfig(experiment, seed=seed, out_dir=str(out)))
    return {c["name"]: c["value"] for c in summary["criteria"]}


@pytest.fixture(scope="module")
def linear2d_run(tmp_path_factory):
    # the linear2d_dmd runner at its README seed and defaults
    return run_values(tmp_path_factory, "linear2d_dmd", seed=42)


def test_criterion_1_spectrum_recovery(linear2d_setup, linear2d_run):
    # DMD on 400 seeded pairs recovers exp(lambda dt) within 1e-3, in the
    # runner and in the library
    run_err = linear2d_run["dmd_eigenvalue_recovery"]
    _, model, *_ = linear2d_setup
    lams = np.sort(np.linalg.eigvals(model.K).real)
    targets = np.sort(np.exp(np.array([-0.9, -0.8]) * 0.2))
    err = float(np.max(np.abs(lams - targets)))
    report(
        1, "spectrum recovery", run_err <= 1e-3 and err <= 1e-3,
        f"max |lam - exp(lam dt)| = {run_err:.3e} (runner), {err:.3e} (library) <= 1e-3",
    )


def test_criterion_2_bound_validity(linear2d_setup, linear2d_run):
    # the runner's error curves come from the two extension loops; the library
    # case runs the same loops with dw drawn from seed 2 and reads their
    # measured errors and certified bounds
    run_worst = linear2d_run["bound_violation_relative"]
    sys_, model, grid, exact, euler, eps_G = linear2d_setup
    L = spectral_norm_bound_L(model.dict, grid)
    M = feature_sup_M(model.dict, grid)
    exact_pairs = [
        (math.exp(-0.9 * 0.2), np.array([1.0, -1.0]) / math.sqrt(2)),
        (math.exp(-0.8 * 0.2), np.array([0.0, 1.0])),
    ]
    rng = np.random.default_rng(2)
    worst = -np.inf
    for lam, w in exact_pairs:
        dw = rng.standard_normal(2)
        dw *= 1e-6 / np.linalg.norm(dw)
        cont = extend_continuous((w, lam), model, euler, math.inf, eps_G, L, M, p_max=10)
        disc = extend_discrete((w + dw, lam), model, exact, math.inf, 1e-6, p_max=10)
        assert len(cont) == len(disc) == 10
        for e in cont.extensions + disc.extensions:
            worst = max(worst, e.trajectory_error / e.bound - 1.0)
    report(
        2, "bound validity p=1..10", run_worst <= 1e-9 and worst <= 1e-9,
        f"worst relative excess over bounds = {run_worst:.3e} (runner), "
        f"{worst:.3e} (library) <= 1e-9",
    )


def test_criterion_3_algorithm_crossing(linear2d_setup, linear2d_run):
    run_gap = linear2d_run["algorithm_crossing_gap"]
    sys_, model, grid, exact, euler, eps_G = linear2d_setup
    L = spectral_norm_bound_L(model.dict, grid)
    M = feature_sup_M(model.dict, grid)
    lams, W = np.linalg.eig(model.K.T)
    gaps = []
    for eps in (0.1, 0.2):
        for j in range(2):
            lam, w = float(lams[j].real), W[:, j].real
            res = extend_continuous(
                (w, lam), model, euler, eps, eps_G, L, M,
                p_max=40, measure_errors=False,
            )
            budget_crossing = res.max_power + 1
            errors = PowerErrors(normalize_to_grid(expr_from_weights(model, w, lam), grid), euler)
            empirical_crossing = None
            for p in range(1, 41):
                if errors(p)[1] > eps:
                    empirical_crossing = p
                    break
            gaps.append(abs(budget_crossing - empirical_crossing))
    report(
        3, "algorithm crossing fidelity", run_gap <= 1 and max(gaps) <= 1,
        f"worst |suggested - empirical| crossing gap = {run_gap:g} (runner), {max(gaps)} "
        f"(library) <= 1 (eps in {{0.1, 0.2}})",
    )


def test_criterion_4_softplus_reproduction():
    lin = make_system("linear2d")
    soft = make_system("softplus2d")
    snaps = transform_snapshots(
        sample_snapshots(lin, 400, 0.02, ((-2, -2), (2, 2)), seed=5), softplus
    )
    dic = rbf_dictionary(snaps, 40, bandwidth=0.7, seed=5)
    model = fit_edmd(snaps, dic, ridge=1e-10)
    grid = EvalGrid((1.0, 1.0), (2.0, 2.0), 0.01)
    results, _, _, _ = certify_on_grid(model, soft, grid, 9, 0.01, p_max=3, seed=0)
    norm_K = np.linalg.norm(model.K)
    worst_res = max(pe.residual for pe in results) / norm_K
    worst_bound = max(e.bound for pe in results for e in pe.result.extensions)
    min_p = min(pe.result.max_power for pe in results)
    ok = worst_res <= 1e-8 and worst_bound <= 0.01 * (1 + 1e-12) and min_p == 3
    report(
        4, "softplus EDMD reproduction", ok,
        f"9 eigenpairs, residual {worst_res:.2e} <= 1e-8, certified bounds "
        f"{worst_bound:.2e} <= eps=0.01, every pair extended to p=3",
    )


def test_criterion_5_multiplicative_algebra():
    worst = 0.0
    # five-dimensional linear family
    sys5 = make_system("lin5d")
    dt = 0.2
    fmap5 = FlowMap(sys5.field, dt, method="exact")
    phi1 = expr_from_analytic(sys5.analytic_eigenfunctions[0])
    phi4 = expr_from_analytic(sys5.analytic_eigenfunctions[3])
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2, 2, size=(8000, 5))
    mask = (np.abs(phi1.eval(pts)) > 0.1) & (np.abs(phi4.eval(pts)) > 0.1)
    pts5 = pts[mask][:1000]
    assert pts5.shape[0] == 1000
    flowed5 = fmap5(pts5)
    for p in range(-2, 4):
        for q in range(-2, 4):
            expr = monomial(phi1, p, phi4, q)
            v0 = expr.eval(pts5)
            v1 = expr.eval(flowed5)
            resid = np.abs(v1 - expr.step_multiplier(dt) * v0) / (1.0 + np.abs(v0))
            worst = max(worst, float(np.max(resid)))
    # one-dimensional rational family
    sysq = make_system("quad1d")
    dtq = 0.05
    fmapq = FlowMap(sysq.field, dtq, method="exact")
    pa = expr_from_analytic(sysq.analytic_eigenfunctions[0])
    pb = expr_from_analytic(sysq.analytic_eigenfunctions[1])
    xs = rng.uniform(1.0, 4.0, size=(8000, 1))
    maskq = (np.abs(xs[:, 0] - 2) > 0.05) & (np.abs(xs[:, 0] - 3) > 0.05)
    ptsq = xs[maskq][:1000]
    flowedq = fmapq(ptsq)
    for p in range(-2, 4):
        for q in range(-2, 4):
            expr = monomial(pa, p, pb, q)
            v0 = expr.eval(ptsq)
            v1 = expr.eval(flowedq)
            resid = np.abs(v1 - expr.step_multiplier(dtq) * v0) / (1.0 + np.abs(v0))
            worst = max(worst, float(np.nanmax(resid)))
    report(
        5, "multiplicative algebra", worst <= 1e-8,
        f"worst eigen-relation residual over (p,q) in {{-2..3}}^2 = {worst:.3e} <= 1e-8",
    )


def test_criterion_6_log_pca_rank_one():
    sys_ = make_system("quad1d")
    grid = EvalGrid((1.0,), (4.0,), 0.005)
    pts = grid.points
    keep = (np.abs(pts[:, 0] - 2.0) > 0.05) & (np.abs(pts[:, 0] - 3.0) > 0.05)
    pts = pts[keep]
    fields = []
    for which in (0, 1):
        base = expr_from_analytic(sys_.analytic_eigenfunctions[which])
        for k in range(1, 6):
            vals = monomial(base, k).eval(pts)
            fields.append(np.log(np.abs(vals)))
    pc = principal_filter(fields)
    ratio = float(pc.singular_values[1] / pc.singular_values[0])
    report(
        6, "log-PCA rank one", pc.rank == 1 and ratio <= 1e-8,
        f"rank = {pc.rank}, sigma2/sigma1 = {ratio:.3e} <= 1e-8",
    )


@pytest.fixture(scope="module")
def bridge1d_run(tmp_path_factory):
    return run_values(tmp_path_factory, "bridge1d", seed=0)


def test_criterion_7_bridging(bridge1d_run):
    # the bridge1d runner at its README seed; the library case continues the
    # cubic eigenfunction at 250 points on [0.01, 2.9], where the runner
    # takes 200 on [0.02, 2.9]
    c_err = bridge1d_run["analytic_c_forward_error"]
    overlap = bridge1d_run["edmd_overlap_relative_rms"]
    run_cubic_err = bridge1d_run["cubic_continuation_relative_rms"]
    cubic = make_system("cubic1d")
    bmc = fit_bridge(
        expr_from_analytic(cubic.analytic_eigenfunctions[0]),
        expr_from_analytic(cubic.analytic_eigenfunctions[1]),
        (-0.9, -0.1),
        tikhonov=0.0,
    )
    xs = np.linspace(0.0 + 0.01, 3.0 - 0.1, 250).reshape(-1, 1)
    cont = continue_across(bmc, source="left", points=xs)
    truth = np.abs(cubic.analytic_eigenfunctions[0].eval(xs))
    scale = float(np.sum(cont * truth) / np.sum(cont**2))
    cubic_err = float(
        np.sqrt(np.mean((scale * cont - truth) ** 2)) / np.sqrt(np.mean(truth**2))
    )
    ok = c_err <= 1e-10 and overlap <= 0.05 and run_cubic_err <= 0.10 and cubic_err <= 0.10
    report(
        7, "bridging", ok,
        f"analytic c err {c_err:.2e} <= 1e-10, overlap {overlap:.3f} <= 0.05, "
        f"continuation {run_cubic_err:.2e} (runner), {cubic_err:.2e} (library) <= 0.10",
    )


def test_criterion_8_polar_transforms():
    from koopext.phase import polar_eigenfunctions, transform_Ti, transform_Ti_inv, transform_To
    from koopext.core import principal_arg

    rng = np.random.default_rng(8)
    z = rng.uniform(0.05, 3.0, 1000) * np.exp(1j * rng.uniform(-math.pi, math.pi, 1000))
    rt = float(np.max(np.abs(
        transform_Ti(transform_Ti_inv(z, 1.0, 1.0, 1.0), 1.0, 1.0, 1.0) - z
    )))
    phi_lc, _ = polar_eigenfunctions(1.0, 1.0, 1.0)
    r = rng.uniform(0.05, 0.95, 1000)
    th = rng.uniform(0, 2 * math.pi, 1000)
    r2, th2 = transform_To(r, th, 1.0, 1.0, 1.0)
    a_in = np.asarray(principal_arg(phi_lc.interior(r, th)))
    a_out = np.asarray(principal_arg(phi_lc.exterior(r2, th2)))
    iso = float(np.max(np.abs(np.angle(np.exp(1j * (a_in - a_out))))))
    r_hand, th_hand = transform_To(0.5, 0.0, 1.0, 0.0, 1.0)
    hand = max(abs(r_hand - 2.0), abs(th_hand))
    ok = rt <= 1e-12 and iso <= 1e-10 and hand <= 1e-10
    report(
        8, "polar transforms", ok,
        f"Ti round trip {rt:.2e} <= 1e-12, isochron preservation {iso:.2e} <= 1e-10, "
        f"hand point {hand:.2e} <= 1e-10",
    )


def test_criterion_9_laplace_eigen_relation(tmp_path):
    # vdp_phase at its defaults: a 57x57 grid (<= 80x80), the band within 0.55
    # of the cycle, the eigen-relation checked over dt = 0.7
    summary = run(ExperimentConfig("vdp_phase", out_dir=str(tmp_path)))
    value = {c["name"]: c["value"] for c in summary["criteria"]}
    ratio = value["laplace_eigen_relation_ratio"]
    trivial = value["trivial_linear_average_error"]
    ok = ratio <= 5e-2 and trivial <= 1e-10
    report(
        9, "Laplace eigen-relation", ok,
        f"annulus residual ratio {ratio:.3e} <= 5e-2, trivial case {trivial:.2e} <= 1e-10",
    )


@pytest.fixture(scope="module")
def duffing_run(tmp_path_factory):
    return run_values(tmp_path_factory, "duffing_edmd", seed=7)


def test_criterion_10_duffing_divergence(duffing_run):
    # duffing_edmd at its README seed: 3000 pairs on [-6, 6]^2, 100 RBFs, the
    # 20 leading modes along 100 unstable-manifold samples
    frac = duffing_run["monotone_growth_fraction"]
    n_modes = duffing_run["n_attractor_real_modes"]
    report(
        10, "Duffing growth along the unstable manifold", frac >= 0.80 and n_modes >= 1,
        f"{n_modes:g} real decaying modes, monotone-toward-saddle fraction "
        f"{frac:.3f} >= 0.80 over consecutive sample pairs",
    )


def test_criterion_11_eigensolver_cross_validation():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 21))
        lams = []
        mod = 1.0
        while len(lams) < n:
            mod *= 1.3
            if rng.random() < 0.3 and n - len(lams) >= 2:
                ang = rng.uniform(0.3, math.pi - 0.3)
                lams += [mod * np.exp(1j * ang), mod * np.exp(-1j * ang)]
            else:
                lams.append(mod * (1.0 if rng.random() < 0.7 else -1.0))
        # well-conditioned similarity with the prescribed spectrum
        blocks = []
        i = 0
        while i < n:
            lam = lams[i]
            if abs(np.imag(lam)) < 1e-14:
                blocks.append(np.array([[np.real(lam)]]))
                i += 1
            else:
                blocks.append(np.array([
                    [np.real(lam), np.imag(lam)],
                    [-np.imag(lam), np.real(lam)],
                ]))
                i += 2
        D = np.zeros((n, n))
        at = 0
        for bl in blocks:
            k = bl.shape[0]
            D[at:at + k, at:at + k] = bl
            at += k
        while True:
            P = np.eye(n) + 0.4 * rng.standard_normal((n, n))
            if np.linalg.cond(P) <= 20.0:
                break
        A = P @ D @ np.linalg.inv(P)
        got_qr = quasi_triangular_eigenvalues(qr_iteration(A, 700))
        scale = max(abs(l) for l in lams)
        key = lambda z: (round(z.real, 6), round(z.imag, 6))
        b = sorted(got_qr, key=key)
        for pairs in (deflate_spectrum(A, n, seed=trial), eigentriplets(A, n)):
            a = sorted((p.lam for p in pairs), key=key)
            assert len(a) == len(b) == n
            worst = max(worst, max(abs(x - y) / scale for x, y in zip(a, b)))
    report(
        11, "eigensolver cross-validation", worst <= 1e-6,
        f"50 matrices (dims 4-20): worst multiset gap of deflation and of eigentriplets "
        f"vs QR = {worst:.3e} <= 1e-6",
    )
