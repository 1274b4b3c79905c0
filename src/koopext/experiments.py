"""End-to-end computational experiments, each reproducing one benchmark study
from a configuration record and emitting machine-readable artifacts plus a
summary with pass/fail against fixed acceptance thresholds.

All artifacts regenerate byte-identically from the same config and seed.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bridge as bridge_mod
from . import phase as phase_mod
from .core import (
    SINGULAR, _AT_LEAST_0, _AT_LEAST_1, _AT_LEAST_2, _AT_LEAST_3, _BANDWIDTH, _CORNERS,
    _INTERVAL, _NONNEGATIVE, _NULL_OR_POSITIVE, _NUMBER, _OBJECT, _POINT, _POSITIVE,
    _POSITIVE_NUMBERS, _REQUIRED, _STRING, _UNIT_OPEN, ConfigurationError, EvalGrid, FlowedGrid,
    _check_record, _Domain, _read_record, _write_csv, _write_json, one_blas_thread,
    principal_arg, write_grid_field,
)
from .dictionary import (
    identity_dictionary,
    rbf_dictionary,
    feature_sup_M,
    spectral_norm_bound_L,
)
from .dynamics import (
    FlowMap,
    VectorField,
    _LIN5D_RATES,
    _saddle_embed,
    integration_error_sup,
    lin5d_base_flow,
    lin5d_lift,
    make_system,
    numeric_jacobian,
    sample_snapshots,
    softplus,
    transform_snapshots,
    unstable_manifold_sample,
    write_snapshots,
    SnapshotSet,
)
from .eigensolve import deflate_spectrum, eigentriplets, write_spectrum_json
from .extend import (
    PairExtension,
    PowerErrors,
    certify_on_grid,
    expr_from_analytic,
    expr_from_weights,
    extend_continuous,
    extend_discrete,
    normalize_to_grid,
    write_extension_report,
)
from .regression import fit_edmd, save_model

__all__ = ["ExperimentConfig", "EXPERIMENTS", "run"]

# The config file format; config.json and summary.json record it.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One run; a config outside `_config_table()` is refused on construction."""

    experiment: str
    seed: int = 0
    out_dir: str = "."
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_record("config", {**asdict(self), "schema_version": SCHEMA_VERSION},
                      _config_table())

    def to_json(self, path) -> None:
        _write_json(path, {**asdict(self), "schema_version": SCHEMA_VERSION}, sort_keys=True)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        raw = _read_record(path, _config_table())
        del raw["schema_version"]
        return ExperimentConfig(**raw)


def _config_table():
    return {
        "experiment": (_REQUIRED, _Domain("the name of an experiment: " + ", ".join(EXPERIMENTS),
                                          lambda v: isinstance(v, str) and v in EXPERIMENTS)),
        "seed": (0, _AT_LEAST_0),  # Philox takes no negative seed
        "out_dir": (".", _STRING),
        "params": ({}, _OBJECT),
        # an integer kind, since true == 1.0 == 1 in Python
        "schema_version": (SCHEMA_VERSION, _Domain(str(SCHEMA_VERSION), lambda v: (
            _AT_LEAST_1.holds(v) and v == SCHEMA_VERSION))),
    }


def _criterion(name, value, threshold, ok):
    return {"name": name, "value": value, "threshold": threshold, "pass": bool(ok)}


def _leq(name, value, threshold):
    return _criterion(name, float(value), threshold, value <= threshold)


# ---------------------------------------------------------------------------
# Each runner's `_*_table()` maps every parameter to its (default, domain).


def _linear2d_table():
    return {
        "n_pairs": (400, _AT_LEAST_1),
        "dt": (0.2, _POSITIVE),
        "box": (2.0, _POSITIVE),
        "grid_lo": (-1.0, _NUMBER),
        "grid_hi": (1.0, _NUMBER),
        "grid_h": (0.01, _UNIT_OPEN),
        "euler_step": (0.001, _POSITIVE),
        "epsilons": ([0.1, 0.2], _POSITIVE_NUMBERS),
        "p_max_curve": (10, _AT_LEAST_1),
        "delta_w_norm": (1e-6, _NONNEGATIVE),
    }


def _run_linear2d_dmd(p: dict, seed: int, out: str) -> dict:
    grid = EvalGrid((p["grid_lo"],) * 2, (p["grid_hi"],) * 2, p["grid_h"])
    sys_ = make_system("linear2d")
    # built first, so a step that does not divide dt, or too many steps, is
    # refused before anything flows
    euler_map = FlowMap(sys_.field, p["dt"], method="euler", step=p["euler_step"])
    b = p["box"]
    snaps = sample_snapshots(sys_, p["n_pairs"], p["dt"], ((-b, -b), (b, b)), seed)
    model = fit_edmd(snaps, identity_dictionary(2))
    save_model(os.path.join(out, "model"), model)
    exact = FlowedGrid.of(FlowMap(sys_.field, p["dt"], method="exact"), grid)
    euler = FlowedGrid.of(euler_map, grid)
    eps_G = integration_error_sup(euler, exact)
    L = spectral_norm_bound_L(model.dict, grid)
    M = feature_sup_M(model.dict, grid)

    triplets = eigentriplets(model.K, 2)
    write_spectrum_json(os.path.join(out, "spectrum.json"), triplets)
    targets = np.exp(np.array([-0.8, -0.9]) * p["dt"])  # descending, as the triplets
    eig_err = max(abs(q.lam.real - t) for q, t in zip(triplets, targets))
    pairs = [(q.lam.real, q.left.real) for q in triplets]
    # reconstruction = one-step prediction from every training state
    recon = snaps.x @ model.K.T
    _write_csv(os.path.join(out, "reconstruction.csv"),
               ["x1", "x2", "pred_y1", "pred_y2", "y1", "y2"],
               np.column_stack([snaps.x, recon, snaps.y]))

    criteria = [_leq("dmd_eigenvalue_recovery", eig_err, 1e-3)]
    rng = np.random.default_rng(seed)
    bound_violation = 0.0
    curves = []
    crossing_rows = []
    for lam, w in pairs:
        # continuous bound: exact eigenvector, numerical (Euler) flow
        exact_pair = min(
            [(math.exp(-0.9 * p["dt"]), np.array([1.0, -1.0]) / math.sqrt(2)),
             (math.exp(-0.8 * p["dt"]), np.array([0.0, 1.0]))],
            key=lambda t: abs(t[0] - lam),
        )
        lam_x, w_x = exact_pair
        cont = extend_continuous((w_x, lam_x), model, euler, math.inf, eps_G, L, M,
                                 p_max=p["p_max_curve"])
        # discrete bound: exact flow, injected eigenvector error
        dw = rng.standard_normal(2)
        dw *= p["delta_w_norm"] / np.linalg.norm(dw)
        disc = extend_discrete((w_x + dw, lam_x), model, exact, math.inf, p["delta_w_norm"],
                               p_max=p["p_max_curve"])
        for c, d in zip(cont.extensions, disc.extensions, strict=True):
            bound_violation = max(bound_violation, *(
                e.trajectory_error / e.bound - 1.0 if e.bound > 0 else 0.0 for e in (c, d)))
            curves.append((lam_x, c.power, c.trajectory_error, c.bound,
                           d.trajectory_error, d.bound))
        # crossing fidelity: certified budget crossing vs measured crossing of
        # the unit-grid-norm eigenfunction error curve, whose errors at
        # p = 1, 2, ... are measured once per pair and shared by every epsilon
        errors_meas = PowerErrors(
            normalize_to_grid(expr_from_weights(model, w, lam), grid), euler
        )
        measured = []
        for eps in p["epsilons"]:
            res = extend_continuous(
                (w, lam), model, euler, eps, eps_G, L, M,
                p_max=40, measure_errors=False,
            )
            p_alg_cross = res.max_power + 1
            p_emp_cross = None
            for power in range(1, 41):
                if power > len(measured):
                    measured.append(errors_meas(power)[1])
                if measured[power - 1] > eps:
                    p_emp_cross = power
                    break
            crossing_rows.append((lam, eps, p_alg_cross, p_emp_cross))
            write_extension_report(
                os.path.join(out, f"extension_eps{eps:g}_lam{lam:.4f}.json"),
                [PairExtension(complex(lam), res, 0.0)],
            )
    criteria.append(_leq("bound_violation_relative", max(bound_violation, 0.0), 1e-9))
    worst_cross = max(abs(a - b) for _, _, a, b in crossing_rows)
    criteria.append(_leq("algorithm_crossing_gap", worst_cross, 1))

    _write_csv(os.path.join(out, "error_curves.csv"),
               ["lambda", "p", "traj_err_integration", "bound_integration",
                "traj_err_eigvec", "bound_eigvec"],
               np.array(curves))
    with open(os.path.join(out, "crossings.csv"), "w") as fh:
        fh.write("lambda,epsilon,budget_crossing,empirical_crossing\n")
        for row in crossing_rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return {
        "criteria": criteria,
        "artifacts": ["model.json", "model_K.csv", "spectrum.json", "reconstruction.csv",
                      "error_curves.csv", "crossings.csv"],
        "eps_G": eps_G,
    }


def _softplus_table():
    return {
        "n_pairs": (400, _AT_LEAST_1),
        "dt": (0.02, _POSITIVE),
        "box": (2.0, _POSITIVE),
        "n_rbf": (40, _AT_LEAST_1),
        "bandwidth": (0.7, _BANDWIDTH),
        "ridge": (1e-10, _NONNEGATIVE),
        # softplus2d lives on y > 0
        "grid_lo": (1.0, _POSITIVE),
        "grid_hi": (2.0, _NUMBER),
        "grid_h": (0.01, _UNIT_OPEN),
        "n_eig": (9, _AT_LEAST_1),
        "epsilon": (0.01, _POSITIVE),
        # extension_reaches_p3 would pass at 0 == 0 with no power extended
        "p_cap": (3, _AT_LEAST_1),
        "max_iter": (300000, _AT_LEAST_1),
    }


def _run_softplus_edmd(p: dict, seed: int, out: str) -> dict:
    grid = EvalGrid((p["grid_lo"],) * 2, (p["grid_hi"],) * 2, p["grid_h"])
    lin = make_system("linear2d")
    soft = make_system("softplus2d")
    b = p["box"]
    snaps = transform_snapshots(
        sample_snapshots(lin, p["n_pairs"], p["dt"], ((-b, -b), (b, b)), seed), softplus
    )
    write_snapshots(os.path.join(out, "snapshots"), snaps)
    dic = rbf_dictionary(snaps, p["n_rbf"], bandwidth=p["bandwidth"], seed=seed)
    model = fit_edmd(snaps, dic, ridge=p["ridge"])
    save_model(os.path.join(out, "model"), model)
    results, eps_G, L, M = certify_on_grid(
        model, soft, grid, p["n_eig"], p["epsilon"], p["p_cap"], seed, max_iter=p["max_iter"]
    )
    write_extension_report(os.path.join(out, "extension_report.json"), results)
    norm_K = np.linalg.norm(model.K)
    worst_res = max(pe.residual for pe in results) / norm_K
    worst_bound = max(
        (e.bound for pe in results for e in pe.result.extensions), default=0.0
    )
    min_power = min(pe.result.max_power for pe in results)
    # field data for the leading extended eigenfunction family
    lead = results[0]
    for ext in lead.result.extensions:
        vals = ext.expr.eval(grid.points)
        write_grid_field(os.path.join(out, f"eigenfunction_p{ext.power}.csv"), grid, vals)
    _write_json(os.path.join(out, "constants.json"), {"eps_G": eps_G, "L": L, "M": M},
                sort_keys=True)
    return {
        "criteria": [
            _leq("eigensolver_relative_residual", worst_res, 1e-8),
            _leq("certified_bound_vs_epsilon", worst_bound, p["epsilon"] * (1 + 1e-12)),
            _criterion("extension_reaches_p3", min_power, p["p_cap"], min_power == p["p_cap"]),
        ],
        "artifacts": ["model.json", "extension_report.json", "constants.json"],
        "eigenvalues": [[pe.eigenvalue.real, pe.eigenvalue.imag] for pe in results],
    }


def _bridge_table():
    return {
        "radius": (0.85, _POSITIVE),
        "left_n_centers": (100, _AT_LEAST_1),
        "left_bandwidth": (0.05, _BANDWIDTH),
        "right_n_centers": (80, _AT_LEAST_1),
        "right_bandwidth": (0.15, _BANDWIDTH),
        "left_n_pairs": (4000, _AT_LEAST_1),
        "right_n_pairs": (8000, _AT_LEAST_1),
        "dt": (0.1, _POSITIVE),
        "window": ([2.25, 2.75], _INTERVAL),
        "tikhonov": (1e-8, _NONNEGATIVE),
        "spurious_threshold": (1e-2, _POSITIVE),
    }


def _run_bridge1d(p: dict, seed: int, out: str) -> dict:
    sys_ = make_system("quad1d")
    cubic = make_system("cubic1d")

    # analytic reciprocal pair: the coefficient is the eigenvalue ratio -1
    bm_analytic = bridge_mod.fit_bridge(
        expr_from_analytic(sys_.analytic_eigenfunctions[0]),
        expr_from_analytic(sys_.analytic_eigenfunctions[1]),
        p["window"],
        tikhonov=0.0,
    )
    analytic_err = abs(bm_analytic.c_forward + 1.0)

    anchor_left, anchor_right = sys_.steady_states
    fam_l = bridge_mod.fit_local_family(
        sys_, anchor_left, p["radius"], p["left_n_centers"], p["left_bandwidth"],
        spurious_threshold=p["spurious_threshold"], seed=seed + 1,
        dt=p["dt"], n_pairs=p["left_n_pairs"],
    )
    fam_r = bridge_mod.fit_local_family(
        sys_, anchor_right, p["radius"], p["right_n_centers"], p["right_bandwidth"],
        spurious_threshold=p["spurious_threshold"], seed=seed + 2,
        dt=p["dt"], n_pairs=p["right_n_pairs"],
    )
    bm = bridge_mod.fit_bridge(
        bridge_mod.leading_member(fam_l), bridge_mod.leading_member(fam_r), p["window"],
        tikhonov=p["tikhonov"],
    )
    bridge_mod.write_bridge_report(os.path.join(out, "bridge_report.json"), bm)
    pts = np.linspace(p["window"][0], p["window"][1], 256).reshape(-1, 1)
    mapped = bridge_mod.continue_across(bm, source="right", points=pts)
    target = np.abs(bm.right_expr.eval(pts))
    overlap = float(np.sqrt(np.mean((mapped - target) ** 2)) / np.sqrt(np.mean(target**2)))

    # continuation of the cubic system's first eigenfunction past its blow-up
    phi1 = expr_from_analytic(cubic.analytic_eigenfunctions[0])
    phi2 = expr_from_analytic(cubic.analytic_eigenfunctions[1])
    a, bb, c_hi = (float(s[0]) for s in cubic.steady_states)
    bm_cubic = bridge_mod.fit_bridge(
        phi1, phi2, (a + 0.1 * (bb - a), bb - 0.1 * (bb - a)), tikhonov=0.0
    )
    xs = np.linspace(bb + 0.02, c_hi - 0.1, 200).reshape(-1, 1)
    cont = bridge_mod.continue_across(bm_cubic, source="left", points=xs)
    truth = np.abs(cubic.analytic_eigenfunctions[0].eval(xs))
    scale = float(np.sum(cont * truth) / np.sum(cont**2))
    cubic_err = float(np.sqrt(np.mean((scale * cont - truth) ** 2)) / np.sqrt(np.mean(truth**2)))
    _write_csv(os.path.join(out, "continued_field.csv"), ["x", "continued", "analytic"],
               np.column_stack([xs[:, 0], scale * cont, truth]))
    return {
        "criteria": [
            _leq("analytic_c_forward_error", analytic_err, 1e-10),
            _leq("edmd_overlap_relative_rms", overlap, 0.05),
            _leq("cubic_continuation_relative_rms", cubic_err, 0.10),
        ],
        "artifacts": ["bridge_report.json", "continued_field.csv"],
        "c_forward": bm.c_forward,
        "c_backward": bm.c_backward,
    }


def _vdp_table():
    return {
        "mu": (0.3, _NONNEGATIVE),
        "grid_half": (2.8, _POSITIVE),
        "grid_h": (0.1, _UNIT_OPEN),
        # refused at run time when it keeps no grid point near the cycle
        "band": (0.55, _NUMBER),
        "dt_check": (0.7, _POSITIVE),
        "x0_cycle": ([2.0, 0.0], _POINT),
        "trivial_lambda": (-0.7, _NUMBER),
        "T": (None, _NULL_OR_POSITIVE),
        "step": (None, _NULL_OR_POSITIVE),
    }


def _distance_to_samples(points: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Distance from each planar point to its nearest sample.

    Bit for bit np.min(np.linalg.norm(points[:, None] - samples[None],
    axis=2), axis=1), without its (n, m, 2) tensor: the norm of 2 entries is
    sqrt(x0*x0 + x1*x1) and sqrt is monotone, so a running minimum of
    dx*dx + dy*dy over the samples takes one sqrt at the end.
    """
    x, y = points[:, 0], points[:, 1]
    d2 = np.full(len(points), np.inf)
    for sx, sy in samples:
        dx = x - sx
        dy = y - sy
        np.minimum(d2, dx * dx + dy * dy, out=d2)
    return np.sqrt(d2)


def _run_vdp_phase(p: dict, seed: int, out: str) -> dict:
    sys_ = make_system("vanderpol", mu=p["mu"])
    h = p["grid_half"]
    grid = EvalGrid((-h, -h), (h, h), p["grid_h"])
    x0 = np.asarray(p["x0_cycle"], dtype=float)
    omega, period, orbit = phase_mod.limit_cycle_period(sys_.field, x0)
    cyc = orbit(np.linspace(0, period, 400)).T
    keep = _distance_to_samples(grid.points, cyc) <= p["band"]
    if not keep.any():
        raise ConfigurationError(f"band = {p['band']} keeps no grid point near the cycle")
    x_keep = grid.points[keep]
    dt = p["dt_check"]
    fmap = FlowMap(sys_.field, dt, method="rk45", rel_tol=1e-10, abs_tol=1e-12)
    # the rows are independent, so the grid and its time-dt image share one batch
    lam, T, step = phase_mod._laplace_plan(period, p["T"], p["step"])
    averaged = phase_mod.laplace_average_batch(
        sys_.field, phase_mod._sin_sum, lam, np.vstack([x_keep, fmap(x_keep)]), T, step
    )
    vals, flowed_vals = averaged[: len(x_keep)], averaged[len(x_keep):]
    values = np.full(len(grid), SINGULAR, dtype=complex)
    values[keep] = vals
    phase_mod.write_phase_csv(
        os.path.join(out, "vdp_phase.csv"), phase_mod.PhaseField(grid, values, lam)
    )
    resid = np.abs(flowed_vals - np.exp(lam * dt) * vals)
    ratio = float(np.max(resid) / np.max(np.abs(vals)))

    # trivial scalar check: x' = lam x with f = x averages to x exactly
    lam0 = p["trivial_lambda"]
    trivial = phase_mod.laplace_average_batch(
        VectorField(1, rhs=lambda q: lam0 * q), lambda q: q[:, 0].astype(complex), lam0,
        np.array([[1.3]]), T=5.0, step=0.01,
    )
    trivial_err = abs(trivial[0] - 1.3)
    _write_json(
        os.path.join(out, "phase_config.json"),
        {"observable": "sin(x1+x2)", "lambda": [0.0, omega], "T": T, "step": step,
         "period": period},
        sort_keys=True,
    )
    return {
        "criteria": [
            _leq("laplace_eigen_relation_ratio", ratio, 5e-2),
            _leq("trivial_linear_average_error", trivial_err, 1e-10),
        ],
        "artifacts": ["vdp_phase.csv", "phase_config.json"],
        "period": period,
    }


def _polar_table():
    return {"mu": (1.0, _POSITIVE), "omega": (1.0, _POSITIVE), "alpha": (1.0, _NUMBER),
            "C": (1.0, _POSITIVE), "n_random": (1000, _AT_LEAST_1)}


def _run_polar_transforms(p: dict, seed: int, out: str) -> dict:
    mu, om, al, C = p["mu"], p["omega"], p["alpha"], p["C"]
    phi_lc, _ = phase_mod.polar_eigenfunctions(mu, al, C)
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.05, 3.0, p["n_random"]) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, p["n_random"])
    )
    round_trip = float(np.max(np.abs(
        phase_mod.transform_Ti(phase_mod.transform_Ti_inv(z, mu, al, C), mu, al, C) - z
    )))
    r = rng.uniform(0.05 * math.sqrt(mu), 0.95 * math.sqrt(mu), p["n_random"])
    th = rng.uniform(0, 2 * math.pi, p["n_random"])
    r2, th2 = phase_mod.transform_To(r, th, mu, al, C)
    a_in = np.asarray(principal_arg(phi_lc.interior(r, th)))
    a_out = np.asarray(principal_arg(phi_lc.exterior(r2, th2)))
    iso_err = float(np.max(np.abs(np.angle(np.exp(1j * (a_in - a_out))))))
    r_hand, th_hand = phase_mod.transform_To(0.5, 0.0, 1.0, 0.0, 1.0)
    hand_err = max(abs(r_hand - 2.0), abs(th_hand - 0.0))

    # trajectory mapping artifact
    sys_ = make_system("polarLC", mu=mu, omega=om, alpha=al, C=C)
    fmap = FlowMap(sys_.field, 0.05, method="exact")
    pt = np.array([0.15, 0.0])
    rows = []
    for _ in range(81):
        rr, tt = math.hypot(*pt), math.atan2(pt[1], pt[0]) % (2 * math.pi)
        rows.append((rr, tt))
        pt = fmap(pt)
    traj = np.asarray(rows)
    mapped = phase_mod.map_trajectory_outside(traj, mu, al, C)
    _write_csv(os.path.join(out, "mapped_trajectory.csv"),
               ["r_in", "theta_in", "r_out", "theta_out"], np.hstack([traj, mapped]))
    return {
        "criteria": [
            _leq("Ti_round_trip_error", round_trip, 1e-12),
            _leq("To_isochron_preservation", iso_err, 1e-10),
            _leq("hand_point_error", hand_err, 1e-10),
        ],
        "artifacts": ["mapped_trajectory.csv"],
    }


def _saddle_table():
    return {"grid_lo": (-0.7, _NUMBER), "grid_hi": (1.6, _NUMBER), "grid_h": (0.05, _UNIT_OPEN)}


def _run_saddle_fields(p: dict, seed: int, out: str) -> dict:
    sys_ = make_system("saddle2d")
    grid = EvalGrid((p["grid_lo"],) * 2, (p["grid_hi"],) * 2, p["grid_h"])
    for eig in sys_.analytic_eigenfunctions:
        write_grid_field(
            os.path.join(out, f"saddle_{eig.name}.csv"), grid, eig.eval(grid.points)
        )
    bist = make_system("bistable2d")
    grid_b = EvalGrid((-1.0, -1.0), (1.0, 1.0), 0.05)
    for eig in bist.analytic_eigenfunctions:
        write_grid_field(
            os.path.join(out, f"bistable_{eig.name}.csv"), grid_b, eig.eval(grid_b.points)
        )
    expected = np.array([[0.5078125, 0.125], [-0.4921875, 0.125]])
    got = np.array([s for s in bist.steady_states if abs(s[0]) > 0.1])
    got = got[np.argsort(-got[:, 0])]
    node_err = float(np.max(np.abs(got - expected)))

    # transversality of the saddle eigenfunction level sets
    worst = 1.0
    ts = np.linspace(-1.2, 1.2, 25)
    for eig_idx, axis in ((0, 1), (1, 0)):
        eig = sys_.analytic_eigenfunctions[eig_idx]
        pts = np.zeros((len(ts), 2))
        pts[:, axis] = ts
        zc = _saddle_embed(pts)
        eps = 1e-6
        pp, pm = pts.copy(), pts.copy()
        pp[:, axis] += eps
        pm[:, axis] -= eps
        tang = (_saddle_embed(pp) - _saddle_embed(pm)) / (2 * eps)
        tang /= np.linalg.norm(tang, axis=1, keepdims=True)
        for zz, tg in zip(zc, tang):
            g = numeric_jacobian(lambda q: eig.eval(q).real, zz)
            g /= np.linalg.norm(g)
            worst = min(worst, abs(float(g @ np.array([-tg[1], tg[0]]))))
    return {
        "criteria": [
            _leq("bistable_node_location_error", node_err, 1e-9),
            _criterion("level_set_transversality_min", worst, 0.5, worst >= 0.5),
        ],
        "artifacts": sorted(f for f in os.listdir(out) if f.endswith(".csv")),
    }


def _duffing_table():
    return {
        "n_pairs": (3000, _AT_LEAST_1),
        "samples_per_traj": (11, _AT_LEAST_2),
        "dt": (0.25, _POSITIVE),
        "box": (6.0, _POSITIVE),
        "n_rbf": (100, _AT_LEAST_1),
        "bandwidth": (2.2, _BANDWIDTH),
        "ridge": (1e-6, _NONNEGATIVE),
        # fewer than 3 samples hold no step away from the saddle on either
        # side: 1 is the saddle's seed point alone, 2 the two branch ends,
        # whose one step crosses the saddle
        "n_manifold": (100, _AT_LEAST_3),
        "window": ([[-2.0, -1.33], [2.0, 1.3]], _CORNERS),
        "top_k": (20, _AT_LEAST_1),
        "unit_collar": (1e-3, _NONNEGATIVE),
    }


def _run_duffing_edmd(p: dict, seed: int, out: str) -> dict:
    sys_ = make_system("duffing")
    b = p["box"]
    snaps = sample_snapshots(
        sys_, p["n_pairs"], p["dt"], ((-b, -b), (b, b)), seed,
        samples_per_traj=p["samples_per_traj"],
    )
    dic = rbf_dictionary(snaps, p["n_rbf"], bandwidth=p["bandwidth"], seed=seed)
    model = fit_edmd(snaps, dic, ridge=p["ridge"])
    save_model(os.path.join(out, "model"), model)
    S = unstable_manifold_sample(sys_, p["n_manifold"], tuple(map(tuple, p["window"])))
    _write_csv(os.path.join(out, "manifold_samples.csv"), ["x1", "x2"], S)
    saddle_idx = int(np.argmin(np.linalg.norm(S, axis=1)))
    triplets = eigentriplets(model.K, min(p["top_k"], model.dim))
    feats = dic.eval(S)
    _write_json(os.path.join(out, "spectrum.json"),
                [{"re": q.lam.real, "im": q.lam.imag} for q in triplets], sort_keys=False)
    good = total = 0
    profiles = {}
    for q in triplets:
        # eigenfunctions tied to the attractors: real and strictly decaying,
        # with the trivial unit eigenvalue excluded
        if abs(q.lam.imag) > 1e-8 or abs(q.lam) >= 1.0 - p["unit_collar"]:
            continue
        vals = np.abs(feats @ q.left)
        profiles[f"{q.lam.real:.6f}"] = vals.tolist()
        for i in range(saddle_idx):
            total += 1
            good += bool(vals[i + 1] > vals[i])
        for i in range(len(S) - 1, saddle_idx, -1):
            total += 1
            good += bool(vals[i - 1] > vals[i])
    frac = good / total if total else 0.0
    _write_json(os.path.join(out, "manifold_eigenfunctions.json"), profiles, sort_keys=False)
    return {
        "criteria": [
            _criterion("monotone_growth_fraction", frac, 0.8, frac >= 0.8),
            _criterion("n_attractor_real_modes", len(profiles), 1, len(profiles) >= 1),
        ],
        "artifacts": ["model.json", "spectrum.json", "manifold_samples.csv",
                      "manifold_eigenfunctions.json"],
        "fit_residual": model.fit_residual,
    }


def _lin5d_table():
    return {"n_pairs": (400, _AT_LEAST_1),
            "dt": (0.2, _POSITIVE), "box": (1.0, _POSITIVE), "grid_n": (21, _AT_LEAST_1)}


def _run_lin5d_check(p: dict, seed: int, out: str) -> dict:
    a = _LIN5D_RATES[0]
    rng = np.random.Generator(np.random.Philox(seed))
    bx = p["box"]
    x0 = rng.uniform(-bx, bx, size=(p["n_pairs"], 2))
    x1 = lin5d_base_flow(x0, p["dt"])
    snaps = SnapshotSet(x=lin5d_lift(x0), y=lin5d_lift(x1), dt=p["dt"])
    model = fit_edmd(snaps, identity_dictionary(5))
    pairs = deflate_spectrum(model.K, 5, seed=seed)
    write_spectrum_json(os.path.join(out, "spectrum.json"), pairs)
    axis = np.linspace(-bx, bx, p["grid_n"])
    g2 = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
    y = lin5d_lift(g2)

    def member(target):
        return min(pairs, key=lambda q: abs(q.lam - math.exp(target * p["dt"])))

    ref = lin5d_lift(np.array([[0.7, 0.3]]))
    worst = 0.0
    for k, lam_k in ((2, 2 * a), (3, 3 * a)):
        w1 = member(a).left
        wk = member(lam_k).left
        phi1 = (y @ w1).real
        phik = (y @ wk).real
        c1 = float((ref @ w1).real[0])
        ck = float((ref @ wk).real[0])
        worst = max(worst, float(np.max(np.abs(phik * (c1**k / ck) - phi1**k))))
    return {
        "criteria": [_leq("power_identity_error", worst, 1e-6)],
        "artifacts": ["spectrum.json"],
    }


# name -> (runner(params, seed, out) -> result, table() -> {key: (default, domain)})
EXPERIMENTS = {
    "linear2d_dmd": (_run_linear2d_dmd, _linear2d_table),
    "softplus_edmd": (_run_softplus_edmd, _softplus_table),
    "bridge1d": (_run_bridge1d, _bridge_table),
    "vdp_phase": (_run_vdp_phase, _vdp_table),
    "polar_transforms": (_run_polar_transforms, _polar_table),
    "saddle_fields": (_run_saddle_fields, _saddle_table),
    "duffing_edmd": (_run_duffing_edmd, _duffing_table),
    "lin5d_check": (_run_lin5d_check, _lin5d_table),
}


def run(config: ExperimentConfig) -> dict:
    """Run one experiment; writes artifacts + summary.json under out_dir.

    The returned summary carries {name, value, threshold, pass} per criterion;
    every output regenerates identically from the same config and seed. The
    runner executes with one BLAS thread (`core.one_blas_thread`), so the
    bytes do not depend on the core count.
    """
    params = _check_record(config.experiment, config.params, EXPERIMENTS[config.experiment][1]())
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    replace(config, params=params).to_json(os.path.join(out, "config.json"))
    with one_blas_thread():
        result = EXPERIMENTS[config.experiment][0](params, config.seed, out)
    summary = {
        "experiment": config.experiment,
        "seed": config.seed,
        "schema_version": SCHEMA_VERSION,
        "criteria": result["criteria"],
        "artifacts": result.get("artifacts", []),
        "all_pass": all(c["pass"] for c in result["criteria"]),
    }
    for key, val in result.items():
        if key not in ("criteria", "artifacts"):
            summary[key] = val
    _write_json(os.path.join(out, "summary.json"), summary, sort_keys=True)
    return summary
