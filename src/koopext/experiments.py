"""End-to-end computational experiments, each reproducing one benchmark study
from a configuration record and emitting machine-readable artifacts plus a
summary with pass/fail against fixed acceptance thresholds.

All artifacts regenerate byte-identically from the same config and seed.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import bridge as bridge_mod
from . import phase as phase_mod
from .core import (
    SINGULAR,
    ConfigurationError,
    EvalGrid,
    FlowedGrid,
    _write_csv,
    principal_arg,
    write_grid_field,
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
    _saddle_embed,
    integration_error_sup,
    lin5d_base_flow,
    lin5d_lift,
    make_system,
    sample_snapshots,
    softplus,
    transform_snapshots,
    unstable_manifold_sample,
    write_snapshots,
    SnapshotSet,
)
from .eigensolve import deflate_spectrum, write_spectrum_json
from .extend import (
    PairExtension,
    PowerErrors,
    bound_constant_CFG,
    continuous_bound,
    discrete_bound,
    expr_from_analytic,
    expr_from_weights,
    extend_continuous,
    iterative_koopman_eigensolver,
    normalize_to_grid,
    write_extension_report,
)
from .regression import fit_edmd, save_model

__all__ = ["ExperimentConfig", "EXPERIMENTS", "default_params", "run"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    out_dir: str = "."
    params: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        unknown = sorted(set(raw) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ConfigurationError(f"{path}: unknown config keys {unknown}")
        if "experiment" not in raw:
            raise ConfigurationError(f"{path}: the config names no experiment")
        return ExperimentConfig(**raw)


def _criterion(name, value, threshold, ok):
    return {"name": name, "value": value, "threshold": threshold, "pass": bool(ok)}


def _leq(name, value, threshold):
    return _criterion(name, float(value), threshold, value <= threshold)


# ---------------------------------------------------------------------------


def _linear2d_defaults():
    return {
        "n_pairs": 400,
        "dt": 0.2,
        "box": 2.0,
        "grid_lo": -1.0,
        "grid_hi": 1.0,
        "grid_h": 0.01,
        "euler_step": 0.001,
        "epsilons": [0.1, 0.2],
        "p_max_curve": 10,
        "delta_w_norm": 1e-6,
    }


def _run_linear2d_dmd(cfg: ExperimentConfig, out: str) -> dict:
    p = {**_linear2d_defaults(), **cfg.params}
    sys_ = make_system("linear2d")
    b = p["box"]
    snaps = sample_snapshots(sys_, p["n_pairs"], p["dt"], ((-b, -b), (b, b)), cfg.seed)
    model = fit_edmd(snaps, identity_dictionary(2))
    save_model(os.path.join(out, "model"), model)
    grid = EvalGrid((p["grid_lo"],) * 2, (p["grid_hi"],) * 2, p["grid_h"])
    exact = FlowedGrid.of(FlowMap(sys_.field, p["dt"], method="exact"), grid)
    euler = FlowedGrid.of(
        FlowMap(sys_.field, p["dt"], method="euler", step=p["euler_step"]), grid
    )
    eps_G = integration_error_sup(euler, exact)
    L = spectral_norm_bound_L(model.dict, grid)
    M = feature_sup_M(model.dict, grid)

    lams, W = np.linalg.eig(model.K.T)
    order = np.argsort(-lams.real)
    targets = np.exp(np.array([-0.8, -0.9]) * p["dt"])
    eig_err = max(
        abs(float(lams[j].real) - t) for j, t in zip(order, sorted(targets, reverse=True))
    )
    pairs = [(float(lams[j].real), W[:, j].real) for j in order]
    write_spectrum_json(
        os.path.join(out, "spectrum.json"),
        deflate_spectrum(model.K, 2, seed=cfg.seed),
    )
    # reconstruction = one-step prediction from every training state
    recon = snaps.x @ model.K.T
    _write_csv(os.path.join(out, "reconstruction.csv"),
               ["x1", "x2", "pred_y1", "pred_y2", "y1", "y2"],
               np.column_stack([snaps.x, recon, snaps.y]))

    criteria = [_leq("dmd_eigenvalue_recovery", eig_err, 1e-3)]
    rng = np.random.default_rng(cfg.seed)
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
        phi_cont = expr_from_weights(model, w_x, lam_x)
        # discrete bound: exact flow, injected eigenvector error
        dw = rng.standard_normal(2)
        dw *= p["delta_w_norm"] / np.linalg.norm(dw)
        phi_disc = expr_from_weights(model, w_x + dw, lam_x, unit_norm=False)
        errors_c = PowerErrors(phi_cont, euler)
        errors_d = PowerErrors(phi_disc, exact)
        for power in range(1, p["p_max_curve"] + 1):
            e_c = errors_c(power)[1]
            b_c = continuous_bound(lam_x, M, L, eps_G, power)
            e_d = errors_d(power)[1]
            cfg_const = bound_constant_CFG(model.dict, exact, lam_x, power)
            b_d = discrete_bound(p["delta_w_norm"], cfg_const, power)
            bound_violation = max(
                bound_violation, e_c / b_c - 1.0 if b_c > 0 else 0.0,
                e_d / b_d - 1.0 if b_d > 0 else 0.0,
            )
            curves.append((lam_x, power, e_c, b_c, e_d, b_d))
        # crossing fidelity: certified budget crossing vs measured crossing of
        # the unit-grid-norm eigenfunction error curve
        errors_meas = PowerErrors(
            normalize_to_grid(expr_from_weights(model, w, lam), grid), euler
        )
        for eps in p["epsilons"]:
            res = extend_continuous(
                (w, lam), model, euler, eps, eps_G, L, M,
                p_max=40, measure_errors=False,
            )
            p_alg_cross = res.max_power + 1
            p_emp_cross = None
            for power in range(1, 41):
                if errors_meas(power)[1] > eps:
                    p_emp_cross = power
                    break
            crossing_rows.append((lam, eps, p_alg_cross, p_emp_cross))
            write_extension_report(
                os.path.join(out, f"extension_eps{eps:g}_lam{lam:.4f}.json"),
                [PairExtension(complex(lam), w, res, 0.0)],
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


def _softplus_defaults():
    return {
        "n_pairs": 400,
        "dt": 0.02,
        "box": 2.0,
        "n_rbf": 40,
        "bandwidth": 0.7,
        "ridge": 1e-10,
        "grid_lo": 1.0,
        "grid_hi": 2.0,
        "grid_h": 0.01,
        "n_eig": 9,
        "epsilon": 0.01,
        "p_cap": 3,
        "rk_rel_tol": 1e-11,
        "rk_abs_tol": 1e-13,
        "max_iter": 300000,
    }


def _run_softplus_edmd(cfg: ExperimentConfig, out: str) -> dict:
    p = {**_softplus_defaults(), **cfg.params}
    lin = make_system("linear2d")
    soft = make_system("softplus2d")
    b = p["box"]
    snaps = transform_snapshots(
        sample_snapshots(lin, p["n_pairs"], p["dt"], ((-b, -b), (b, b)), cfg.seed), softplus
    )
    write_snapshots(os.path.join(out, "snapshots"), snaps)
    dic = rbf_dictionary(snaps, p["n_rbf"], bandwidth=p["bandwidth"], seed=cfg.seed)
    model = fit_edmd(snaps, dic, ridge=p["ridge"])
    save_model(os.path.join(out, "model"), model)
    grid = EvalGrid((p["grid_lo"],) * 2, (p["grid_hi"],) * 2, p["grid_h"])
    rk = FlowedGrid.of(FlowMap(soft.field, p["dt"], method="rk45",
                               rel_tol=p["rk_rel_tol"], abs_tol=p["rk_abs_tol"]), grid)
    exact = FlowedGrid.of(FlowMap(soft.field, p["dt"], method="exact"), grid)
    eps_G = integration_error_sup(rk, exact)
    L = spectral_norm_bound_L(dic, grid)
    M = feature_sup_M(dic, grid)
    results = iterative_koopman_eigensolver(
        model, rk, n=p["n_eig"], epsilon=p["epsilon"], eps_G=eps_G, L=L, M=M,
        p_max=p["p_cap"], seed=cfg.seed, max_iter=p["max_iter"],
    )
    write_extension_report(os.path.join(out, "extension_report.json"), results)
    norm_K = np.linalg.norm(model.K)
    worst_res = max(pe.residual for pe in results) / norm_K
    worst_bound = max(
        (e.report.bound for pe in results for e in pe.result.extensions), default=0.0
    )
    min_power = min(pe.result.max_power for pe in results)
    # field data for the leading extended eigenfunction family
    lead = results[0]
    for ext in lead.result.extensions:
        vals = ext.expr.eval(grid.points)
        write_grid_field(os.path.join(out, f"eigenfunction_p{ext.power}.csv"), grid, vals)
    with open(os.path.join(out, "constants.json"), "w") as fh:
        json.dump({"eps_G": eps_G, "L": L, "M": M}, fh, indent=2, sort_keys=True)
    return {
        "criteria": [
            _leq("eigensolver_relative_residual", worst_res, 1e-8),
            _leq("certified_bound_vs_epsilon", worst_bound, p["epsilon"] * (1 + 1e-12)),
            _criterion("extension_reaches_p3", min_power, p["p_cap"], min_power == p["p_cap"]),
        ],
        "artifacts": ["model.json", "extension_report.json", "constants.json"],
        "eigenvalues": [[pe.eigenvalue.real, pe.eigenvalue.imag] for pe in results],
    }


def _bridge_defaults():
    return {
        "anchor_left": 2.0,
        "anchor_right": 3.0,
        "radius": 0.85,
        "left_dict": {"n_centers": 100, "bandwidth": 0.05},
        "right_dict": {"n_centers": 80, "bandwidth": 0.15},
        "left_n_pairs": 4000,
        "right_n_pairs": 8000,
        "dt": 0.1,
        "window": [2.25, 2.75],
        "tikhonov": 1e-8,
        "spurious_threshold": 1e-2,
        "continuation_range": [3.02, 3.5],
    }


def _run_bridge1d(cfg: ExperimentConfig, out: str) -> dict:
    p = {**_bridge_defaults(), **cfg.params}
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

    fam_l = bridge_mod.fit_local_family(
        sys_, p["anchor_left"], p["radius"], p["left_dict"],
        spurious_threshold=p["spurious_threshold"], seed=cfg.seed + 1,
        dt=p["dt"], n_pairs=p["left_n_pairs"],
    )
    fam_r = bridge_mod.fit_local_family(
        sys_, p["anchor_right"], p["radius"], p["right_dict"],
        spurious_threshold=p["spurious_threshold"], seed=cfg.seed + 2,
        dt=p["dt"], n_pairs=p["right_n_pairs"],
    )
    bm = bridge_mod.fit_bridge(fam_l, fam_r, p["window"], tikhonov=p["tikhonov"])
    bridge_mod.write_bridge_report(os.path.join(out, "bridge_report.json"), bm)
    pts = np.linspace(p["window"][0], p["window"][1], 256).reshape(-1, 1)
    mapped = bridge_mod.continue_across(bm, source="right", points=pts)
    target = np.abs(bm.right_expr.eval(pts))
    overlap = float(np.sqrt(np.mean((mapped - target) ** 2)) / np.sqrt(np.mean(target**2)))

    # continuation of the cubic system's first eigenfunction past its blow-up
    phi1 = expr_from_analytic(cubic.analytic_eigenfunctions[0])
    phi2 = expr_from_analytic(cubic.analytic_eigenfunctions[1])
    a, bb = cubic.metadata["a"], cubic.metadata["b"]
    bm_cubic = bridge_mod.fit_bridge(
        phi1, phi2, (a + 0.1 * (bb - a), bb - 0.1 * (bb - a)), tikhonov=0.0
    )
    c_hi = cubic.metadata["c"]
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


def _vdp_defaults():
    return {
        "mu": 0.3,
        "grid_half": 2.8,
        "grid_h": 0.1,
        "band": 0.55,
        "dt_check": 0.7,
        "x0_cycle": [2.0, 0.0],
        "trivial_lambda": -0.7,
        "T": None,
        "step": None,
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


def _run_vdp_phase(cfg: ExperimentConfig, out: str) -> dict:
    p = {**_vdp_defaults(), **cfg.params}
    sys_ = make_system("vanderpol", mu=p["mu"])
    h = p["grid_half"]
    grid = EvalGrid((-h, -h), (h, h), p["grid_h"])
    x0 = np.asarray(p["x0_cycle"], dtype=float)
    omega, period, orbit = phase_mod.limit_cycle_period(sys_.field, x0)
    cyc = orbit(np.linspace(0, period, 400)).T
    keep = _distance_to_samples(grid.points, cyc) <= p["band"]
    x_keep = grid.points[keep]
    dt = p["dt_check"]
    fmap = FlowMap(sys_.field, dt, method="rk45", rel_tol=1e-10, abs_tol=1e-12)
    # the rows are independent, so the grid and its time-dt image share one batch
    lam, T, step = phase_mod._laplace_plan(
        phase_mod.LaplaceConfig(period=period, T=p["T"], step=p["step"])
    )
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
    with open(os.path.join(out, "phase_config.json"), "w") as fh:
        json.dump(
            {"observable": "sin(x1+x2)", "lambda": [0.0, omega],
             "T": T, "step": step, "period": period},
            fh, indent=2, sort_keys=True,
        )
    return {
        "criteria": [
            _leq("laplace_eigen_relation_ratio", ratio, 5e-2),
            _leq("trivial_linear_average_error", trivial_err, 1e-10),
        ],
        "artifacts": ["vdp_phase.csv", "phase_config.json"],
        "period": period,
    }


def _polar_defaults():
    return {"mu": 1.0, "omega": 1.0, "alpha": 1.0, "C": 1.0, "n_random": 1000}


def _run_polar_transforms(cfg: ExperimentConfig, out: str) -> dict:
    p = {**_polar_defaults(), **cfg.params}
    mu, om, al, C = p["mu"], p["omega"], p["alpha"], p["C"]
    rng = np.random.default_rng(cfg.seed)
    z = rng.uniform(0.05, 3.0, p["n_random"]) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, p["n_random"])
    )
    round_trip = float(np.max(np.abs(
        phase_mod.transform_Ti(phase_mod.transform_Ti_inv(z, mu, al, C), mu, al, C) - z
    )))
    phi_lc, _ = phase_mod.polar_eigenfunctions(mu, om, al, C)
    r = rng.uniform(0.05, 0.95 * math.sqrt(mu), p["n_random"])
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
    mapped = phase_mod.map_trajectory_outside(traj, mu, om, al, C)
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


def _saddle_defaults():
    return {"grid_lo": -0.7, "grid_hi": 1.6, "grid_h": 0.05}


def _run_saddle_fields(cfg: ExperimentConfig, out: str) -> dict:
    p = {**_saddle_defaults(), **cfg.params}
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
            g = np.zeros(2)
            for j in range(2):
                hh = 1e-6 * (1 + abs(zz[j]))
                zp, zm = zz.copy(), zz.copy()
                zp[j] += hh
                zm[j] -= hh
                g[j] = (eig.eval(zp[None, :])[0].real - eig.eval(zm[None, :])[0].real) / (2 * hh)
            g /= np.linalg.norm(g)
            worst = min(worst, abs(float(g @ np.array([-tg[1], tg[0]]))))
    return {
        "criteria": [
            _leq("bistable_node_location_error", node_err, 1e-9),
            _criterion("level_set_transversality_min", worst, 0.5, worst >= 0.5),
        ],
        "artifacts": sorted(f for f in os.listdir(out) if f.endswith(".csv")),
    }


def _duffing_defaults():
    return {
        "n_pairs": 3000,
        "samples_per_traj": 11,
        "dt": 0.25,
        "box": 6.0,
        "n_rbf": 100,
        "bandwidth": 2.2,
        "ridge": 1e-6,
        "n_manifold": 100,
        "window": [[-2.0, -1.33], [2.0, 1.3]],
        "top_k": 20,
        "unit_collar": 1e-3,
    }


def _run_duffing_edmd(cfg: ExperimentConfig, out: str) -> dict:
    p = {**_duffing_defaults(), **cfg.params}
    sys_ = make_system("duffing")
    b = p["box"]
    snaps = sample_snapshots(
        sys_, p["n_pairs"], p["dt"], ((-b, -b), (b, b)), cfg.seed,
        samples_per_traj=p["samples_per_traj"],
    )
    dic = rbf_dictionary(snaps, p["n_rbf"], bandwidth=p["bandwidth"], seed=cfg.seed)
    model = fit_edmd(snaps, dic, ridge=p["ridge"])
    save_model(os.path.join(out, "model"), model)
    S = unstable_manifold_sample(sys_, p["n_manifold"], tuple(map(tuple, p["window"])))
    _write_csv(os.path.join(out, "manifold_samples.csv"), ["x1", "x2"], S)
    saddle_idx = int(np.argmin(np.linalg.norm(S, axis=1)))
    lams, W = np.linalg.eig(model.K.T)
    order = np.argsort(-np.abs(lams))[: p["top_k"]]
    feats = dic.eval(S)
    with open(os.path.join(out, "spectrum.json"), "w") as fh:
        json.dump(
            [{"re": float(lams[j].real), "im": float(lams[j].imag)} for j in order],
            fh, indent=2,
        )
    good = total = 0
    profiles = {}
    for j in order:
        lam = lams[j]
        # eigenfunctions tied to the attractors: real and strictly decaying,
        # with the trivial unit eigenvalue excluded
        if abs(lam.imag) > 1e-8 or abs(lam) >= 1.0 - p["unit_collar"]:
            continue
        w = W[:, j]
        w = w.real if np.max(np.abs(w.imag)) < 1e-12 else w
        vals = np.abs(feats @ w)
        profiles[f"{lam.real:.6f}"] = vals.tolist()
        for i in range(saddle_idx):
            total += 1
            good += bool(vals[i + 1] > vals[i])
        for i in range(len(S) - 1, saddle_idx, -1):
            total += 1
            good += bool(vals[i - 1] > vals[i])
    frac = good / total if total else 0.0
    with open(os.path.join(out, "manifold_eigenfunctions.json"), "w") as fh:
        json.dump(profiles, fh, indent=2)
    return {
        "criteria": [
            _criterion("monotone_growth_fraction", frac, 0.8, frac >= 0.8),
            _criterion("n_attractor_real_modes", len(profiles), 1, len(profiles) >= 1),
        ],
        "artifacts": ["model.json", "spectrum.json", "manifold_samples.csv",
                      "manifold_eigenfunctions.json"],
        "fit_residual": model.fit_residual,
    }


def _lin5d_defaults():
    return {"a": -0.4, "b": -1.0, "n_pairs": 400, "dt": 0.2, "box": 1.0, "grid_n": 21}


def _run_lin5d_check(cfg: ExperimentConfig, out: str) -> dict:
    p = {**_lin5d_defaults(), **cfg.params}
    a, b = p["a"], p["b"]
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    bx = p["box"]
    x0 = rng.uniform(-bx, bx, size=(p["n_pairs"], 2))
    x1 = lin5d_base_flow(x0, p["dt"], a, b)
    snaps = SnapshotSet(x=lin5d_lift(x0), y=lin5d_lift(x1), dt=p["dt"])
    model = fit_edmd(snaps, identity_dictionary(5))
    pairs = deflate_spectrum(model.K, 5, seed=cfg.seed)
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


EXPERIMENTS = {
    "linear2d_dmd": (_run_linear2d_dmd, _linear2d_defaults),
    "softplus_edmd": (_run_softplus_edmd, _softplus_defaults),
    "bridge1d": (_run_bridge1d, _bridge_defaults),
    "vdp_phase": (_run_vdp_phase, _vdp_defaults),
    "polar_transforms": (_run_polar_transforms, _polar_defaults),
    "saddle_fields": (_run_saddle_fields, _saddle_defaults),
    "duffing_edmd": (_run_duffing_edmd, _duffing_defaults),
    "lin5d_check": (_run_lin5d_check, _lin5d_defaults),
}


def default_params(experiment: str) -> dict:
    return EXPERIMENTS[experiment][1]()


def run(config: ExperimentConfig) -> dict:
    """Run one experiment; writes artifacts + summary.json under out_dir.

    The returned summary carries {name, value, threshold, pass} per criterion;
    every output regenerates identically from the same config and seed.
    """
    if config.experiment not in EXPERIMENTS:
        raise ConfigurationError(f"unknown experiment {config.experiment!r}")
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    config.to_json(os.path.join(out, "config.json"))
    runner, _ = EXPERIMENTS[config.experiment]
    result = runner(config, out)
    summary = {
        "experiment": config.experiment,
        "seed": config.seed,
        "schema_version": config.schema_version,
        "criteria": result["criteria"],
        "artifacts": result.get("artifacts", []),
        "all_pass": all(c["pass"] for c in result["criteria"]),
    }
    for key, val in result.items():
        if key not in ("criteria", "artifacts"):
            summary[key] = val
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    return summary
