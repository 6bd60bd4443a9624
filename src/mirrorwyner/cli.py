"""Batch experiment runner: every module exposed as a subcommand emitting
deterministic CSV. Plotting is external; configs are JSON.

Exit codes: 0 success, 1 a declared output assertion failed, 2 usage error,
3 invalid payload, 4 arithmetic failure in a run (both with machine-readable
error JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import divergence as dv
from . import equilibrium, mirror, nonstationary, plant, prob, solvers
from .errors import ConfigurationError, ValidationError
from .mirror import UncertaintyModel
from .prob import JointPmf2, Pmf, PrivacyMapping

SUBCOMMANDS = ("mi-tradeoff", "secrecy-gap", "convergence-cdf", "mfg", "lohe",
               "stackelberg", "nash", "plant", "divergence")


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: malformed JSON ({exc})")
    except OSError as exc:
        raise ValidationError(f"config: unreadable ({exc})")
    if not isinstance(cfg, dict):
        raise ValidationError(f"config: top level must be a JSON object, not {type(cfg).__name__}")
    return cfg


def _number(key, value, integral=False, lo=-np.inf, hi=np.inf):
    """A config value as an int (integral=True) or a float in [lo, hi].
    Anything else, bools and strings included, fails under its config key."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not lo <= value <= hi
            or integral and isinstance(value, float) and not value.is_integer()):
        kind = "an integer" if integral else "a number"
        raise ValidationError(f"{key}: need {kind} in [{lo}, {hi}], got {value!r}")
    return int(value) if integral else float(value)


def _list(cfg, key, default):
    value = cfg.get(key, default)
    if not isinstance(value, (list, range, tuple)):
        raise ValidationError(f"{key}: need a list, got {value!r}")
    return value


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer, np.bool_)):
        return str(int(v))
    v = float(v)
    if v != v:
        raise ValidationError("output: NaN cell with no tag")
    return f"{v:.12g}"


def _write(out_path, header, rows):
    lines = [header]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Batch experiment: iterations-to-converge CDFs, relaxed vs unrelaxed
# ---------------------------------------------------------------------------

def _cdf_variants(cfg):
    eps = tuple(_number("eps", e, lo=0.0) for e in _list(cfg, "eps", solvers.DEFAULT_EPS))
    if len(eps) != 3:
        raise ValidationError(f"eps: need three floors, got {list(eps)}")
    mode = cfg.get("mode", "two")
    if mode not in ("two", "three"):
        raise ValidationError(f"mode: must be 'two' or 'three', got {mode!r}")
    variants = [("relaxed", dict(relaxed=True, eps=eps)),
                ("unrelaxed", dict(relaxed=False, eps=eps))]
    if mode == "three":
        tight = tuple(e / 10 for e in eps)
        variants.append(("relaxed_tight", dict(relaxed=True, eps=tight)))
    return variants


def _instance(cfg):
    return mirror.MirrorGameInstance.from_jsonable(cfg["instance"]) \
        if "instance" in cfg else mirror.reference_binary_instance()


def run_convergence_cdf(cfg, seed, rep):
    inst = _instance(cfg)
    n_seeds = _number("n_seeds", cfg.get("n_seeds", 40), True, 1)
    budget = _number("budget", cfg.get("budget", 60), True, 1)
    mag = _number("b_magnitude", cfg.get("b_magnitude", 0.5), lo=0.0, hi=1.0)
    seeds = [_number("seeds", s, True, 0)
             for s in _list(cfg, "seeds", range(seed, seed + n_seeds))]
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValidationError(f"seeds: need distinct seeds, got {seeds}")
    variants = _cdf_variants(cfg)

    results = []
    for name, kw in variants:
        for s in seeds:
            u = UncertaintyModel(magnitude=mag, seed=s)
            try:
                _, trace = solvers.greedy_solve(inst, u, budget=budget, seed=s, **kw)
                results.append((name, s, trace.iterations, trace.converged,
                                trace.feasible, ""))
            except ArithmeticError as exc:
                results.append((name, s, -1, False, False, type(exc).__name__))
    results.sort(key=lambda r: (r[0], r[1]))

    rows = [("run", name, s, iters, int(conv), int(bool(feas)), tag or "ok")
            for name, s, iters, conv, feas, tag in results]
    per = {name: np.array([r[2] for r in results if r[0] == name and r[2] >= 0])
           for name, _ in variants}
    grid = np.unique(np.concatenate([v for v in per.values() if v.size]))
    for t in grid:
        row = ["cdf", "", int(t), "", "", "", ""]
        for k, (name, _) in enumerate(variants):
            frac = float(np.mean(per[name] <= t)) if per[name].size else 0.0
            row[3 + k] = frac
        rows.append(tuple(row))
    ok = True
    if per["relaxed"].size and per["unrelaxed"].size:
        # imported here: scipy.stats costs about a second and tens of MB,
        # and no other subcommand uses it
        from scipy import stats
        confirm = stats.ks_2samp(per["relaxed"], per["unrelaxed"],
                                 alternative="greater")
        violate = stats.ks_2samp(per["relaxed"], per["unrelaxed"],
                                 alternative="less")
        ok = violate.pvalue >= 0.05
        rows.append(("summary", "ks_dominates", "", confirm.statistic,
                     confirm.pvalue, int(ok), ""))
    rows.append(("summary", "completed", "",
                 *[per[name].size for name, _ in variants[:2]],
                 len(results), ""))
    if "relaxed_tight" in per:
        rows.append(("summary", "completed_tight", "", per["relaxed_tight"].size,
                     "", "", ""))
    header = "record,variant,value,col_a,col_b,col_c,tag"
    return header, rows, 0 if ok else 1


# ---------------------------------------------------------------------------
# Frontier and gap sweeps over the binary reference instance
# ---------------------------------------------------------------------------

def _binary_mappings(resolution):
    """All 2x2 row-stochastic mappings on a 1/resolution grid, as (n, 2, 2)
    rows: [[a, 1 - a], [b, 1 - b]] with a the outer and b the inner tick."""
    ticks = np.linspace(0.0, 1.0, resolution + 1)
    a, b = np.repeat(ticks, ticks.size), np.tile(ticks, ticks.size)
    return np.stack([a, 1 - a, b, 1 - b], axis=-1).reshape(-1, 2, 2)


def _sweep_config(cfg, default_mags, default_points):
    """The settings both sweeps read: magnitudes, draws per point, grid points
    and mapping resolution, each rejected under its config key when out of
    range. The first two rules are `mirror.sample_leakage`'s."""
    return ([_number("b_magnitudes", b, lo=0.0, hi=1.0)
             for b in _list(cfg, "b_magnitudes", default_mags)],
            _number("n_samples", cfg.get("n_samples", 64), True, 1),
            _number("grid_points", cfg.get("grid_points", default_points), True, 2),
            _number("resolution", cfg.get("resolution", 16), True, 0))


def run_mi_tradeoff(cfg, seed, rep):
    inst = _instance(cfg)
    mags, n_samples, n_grid, res = _sweep_config(cfg, (0.1, 0.5), 6)
    theta = _number("theta", cfg.get("theta", 0.9), lo=0.0, hi=1.0)
    q = 0
    p_x = inst.x_marginal(q)
    if p_x.alphabet_size != 2:
        raise ValidationError("instance: mi-tradeoff sweeps 2x2 mappings, so X_0 must be binary")
    i_sx = prob.mutual_information(inst.joints[q])
    h_x = prob.entropy(p_x)
    const_v = PrivacyMapping.constant(p_x.alphabet_size, inst.virtual_alphabet)
    grid = _binary_mappings(res)
    utilities = mirror._utility(p_x.probs, grid)
    asgs = [mirror.TwinAssignment((PrivacyMapping(o),) * inst.q_count,
                                  (const_v,) * inst.q_count) for o in grid]
    bounds = np.linspace(0.0, i_sx, n_grid)
    rows = []
    for mag in mags:
        draws = np.zeros((len(grid), n_samples))
        for mi, asg in enumerate(asgs):
            draws[mi] = mirror.sample_leakage(inst, asg, q, mag,
                                              np.random.default_rng(seed + 1000 * mi),
                                              n_samples)
        for gi, bound in enumerate(bounds):
            feas = np.mean(draws <= bound + mirror.NULL_TOL, axis=1) >= theta
            solved = bool(np.any(feas))
            best = float(utilities[feas].max()) if solved else 0.0
            rows.append((mag, gi, bound / i_sx if i_sx > 0 else 0.0,
                         best / h_x if h_x > 0 else 0.0, best, int(solved)))
    header = "b_magnitude,grid_index,leakage_norm,utility_norm,utility_bits,feasible"
    return header, rows, 0


def run_secrecy_gap(cfg, seed, rep):
    inst = _instance(cfg)
    mags, n_samples, n_grid, res = _sweep_config(cfg, (0.6, 0.7), 5)
    q = 0
    if inst.virtual_alphabet != 2 or any(j.table.shape[1] != 2 for j in inst.joints):
        raise ValidationError("instance: secrecy-gap sweeps 2x2 twin mappings, so every "
                              "X_q and the virtual alphabet must be binary")
    p_x = inst.x_marginal(q)
    ident = PrivacyMapping.identity(p_x.alphabet_size)
    power_max = float(np.max(inst.symbol_values[q] ** 2))
    budgets = np.linspace(0.0, power_max, n_grid)
    grid = _binary_mappings(res)
    # `superposed_exposure` of the whole grid: at grid point k every Bob
    # takes the identity original and the virtual rows grid[k]
    exposure = mirror._cross_mi(inst.source.probs, inst.x_given_s(q),
                                [mirror._sum_channel(inst, p, ident.rows, grid)
                                 for p in range(inst.q_count) if p != q])
    gap = mirror._utility(p_x.probs, ident.rows) - exposure
    power = mirror._virtual_power(p_x.probs, grid, inst.symbol_values[q])
    # leakage chance under the identity original, per panel
    const_v = PrivacyMapping.constant(p_x.alphabet_size, inst.virtual_alphabet)
    asg0 = mirror.TwinAssignment((ident,) * inst.q_count, (const_v,) * inst.q_count)
    constraints = mirror.ConstraintSet.build(inst)
    rows = []
    for mag in mags:
        draws = mirror.sample_leakage(inst, asg0, q, mag, np.random.default_rng(seed),
                                      n_samples)
        leak_chance = float(np.mean(constraints.holds(draws, q, 1)))
        for gi, budget in enumerate(budgets):
            feas = power <= budget + 1e-12
            solved = bool(np.any(feas))
            # a budget below every mapping's power has no solution
            best = float(gap[feas].max()) if solved else 0.0
            rows.append((mag, gi, budget / power_max if power_max > 0 else 0.0,
                         best, leak_chance, int(solved)))
    header = "b_magnitude,grid_index,budget_norm,gap_bits,leakage_chance,solved"
    return header, rows, 0


# ---------------------------------------------------------------------------
# Module dispatch subcommands
# ---------------------------------------------------------------------------

def _default_mfg_payload():
    n_x, x_min, x_max, s0 = 101, -3.0, 3.0, 0.5
    xs = np.linspace(x_min, x_max, n_x)
    dens = np.exp(-xs**2 / (2 * s0**2))
    dens /= dens.sum() * (xs[1] - xs[0])
    return {"x_min": x_min, "x_max": x_max, "n_x": n_x, "n_t": 100,
            "dt": 0.01, "sigma": 0.1, "initial_density": list(dens)}


def run_mfg(cfg, seed, rep):
    payload = cfg.get("grid", _default_mfg_payload())
    grid = nonstationary.MfgGrid.from_jsonable(payload)
    sol = nonstationary.mfg_solve(
        grid, tol=_number("tol", cfg.get("tol", 1e-6)),
        max_sweeps=_number("max_sweeps", cfg.get("max_sweeps", 50), True, 1),
        damping=_number("damping", cfg.get("damping", 0.5)))
    print(json.dumps({"converged": bool(sol.converged),
                      "sweeps": len(sol.residuals),
                      "final_residual": float(sol.residuals[-1])}),
          file=sys.stderr)
    rows = [(k, x, sol.value[k, i], sol.density[k, i])
            for k in range(grid.n_t) for i, x in enumerate(grid.xs)]
    return "k,x,J,P_df", rows, 0


def run_lohe(cfg, seed, rep):
    q = _number("q", cfg.get("q", 4), True, 1)
    d = _number("d", cfg.get("d", 2), True, 1)
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(q, d)) + 1j * rng.normal(size=(q, d))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    h = rng.normal(size=(q, d, d))
    hams = (h + h.transpose(0, 2, 1)) / 2
    if cfg.get("common_hamiltonian", True):
        hams = np.broadcast_to(hams[0], (q, d, d)).copy()
    sys_ = nonstationary.LoheSystem(
        states=states, hamiltonians=hams, hbar=_number("hbar", cfg.get("hbar", 1.0)),
        alpha=_number("alpha", cfg.get("alpha", 1.0)),
        coupling=cfg.get("coupling", "aligning"))
    dt = _number("dt", cfg.get("dt", 1e-2))
    steps = _number("steps", cfg.get("steps", 500), True)
    stride = _number("stride", cfg.get("stride", 10), True, 1)
    traj = nonstationary.lohe_integrate(sys_, dt, steps)
    rows = []
    for k in range(0, steps + 1, stride):
        norms = np.linalg.norm(traj[k], axis=1)
        rows.append((k, nonstationary.sync_order(traj[k]),
                     float(norms.min()), float(norms.max())))
    return "step,sync_order,min_norm,max_norm", rows, 0


def run_stackelberg(cfg, seed, rep):
    if "laws" in cfg:
        inst = nonstationary.StackelbergInstance(
            leader_laws=tuple(np.asarray(l, dtype=float) for l in cfg["laws"]),
            payoffs=np.asarray(cfg["payoffs"], dtype=float),
            leader_drift=None if cfg.get("drift") is None
            else np.asarray(cfg["drift"], dtype=float))
    else:
        rng = np.random.default_rng(seed)
        n_f, n_u, n_laws = (_number(k, cfg.get(k, v), True, 1) for k, v in
                            (("n_follower", 6), ("n_leader_state", 4), ("n_laws", 8)))
        laws = tuple(rng.dirichlet(np.ones(n_u), size=n_f) for _ in range(n_laws))
        inst = nonstationary.StackelbergInstance(
            leader_laws=laws, payoffs=rng.normal(size=(n_f, n_u)))
    rows = []
    for stage in _list(cfg, "stages", [0]):
        stage = _number("stages", stage, True)
        li, a, v = nonstationary.stackelberg_solve(inst, stage=stage)
        rows.append((stage, li, a, v))
    return "stage,leader_law,follower_action,value", rows, 0


def run_nash(cfg, seed, rep):
    if "weights" in cfg:
        game = equilibrium.KCutGame.from_jsonable(cfg)
    else:
        rng = np.random.default_rng(seed)
        n = _number("n", cfg.get("n", 8), True, 1)
        w = rng.uniform(0, 1, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        game = equilibrium.KCutGame(w, _number("k", cfg.get("k", 3), True))
    init = equilibrium.StrategyProfile(tuple(cfg.get("init", [0] * game.n)))
    res = equilibrium.best_response_dynamics(game, init)
    is_nash, worst = equilibrium.verify_nash(game, res.profile)
    rows = [("|".join(str(c) for c in res.profile.colors), res.rounds,
             int(res.converged), int(is_nash),
             equilibrium.potential(game, res.profile))]
    return "colors,rounds,converged,is_nash,potential", rows, 0


def run_plant(cfg, seed, rep):
    if "a1" in cfg:
        missing = [k for k in ("a2", "a3", "a4") if k not in cfg]
        if missing:
            raise ValidationError(f"{missing[0]}: a plant given by matrices needs a1 to a4")
        keys = [f.name for f in fields(plant.LinearPlant)]
        p = plant.LinearPlant.from_jsonable({k: cfg[k] for k in keys if k in cfg})
    else:
        rng = np.random.default_rng(seed)
        n = _number("n", cfg.get("n", 4), True, 1)
        p = plant.LinearPlant(rng.normal(size=(n, n)) / n,
                              rng.normal(size=(n, 1)),
                              rng.normal(size=(1, n)),
                              rng.normal(size=(1, 1)))
    c_rank, controllable = plant.controllability_rank(p.a1, p.a2)
    o_rank, observable = plant.observability_rank(p.a1, p.a3)
    rho = plant.closed_loop_spectral_radius(p)
    rows = [(p.n, c_rank, int(controllable), o_rank, int(observable),
             rho, int(rho < 1))]
    return "n,ctrb_rank,controllable,obsv_rank,observable,spectral_radius,stable", rows, 0


def run_divergence(cfg, seed, rep):
    if "joint" in cfg:
        model = dv.LatentModel(np.asarray(cfg["joint"], dtype=float),
                               *(_number(f"theta{i}", cfg.get(f"theta{i}", 1.0))
                                 for i in range(4)))
    else:
        rng = np.random.default_rng(seed)
        model = dv.LatentModel(rng.dirichlet(np.ones(2 * 3 * 4 * 2)).reshape(2, 3, 4, 2))
    n_z = model.p_z().size
    acc = tuple(cfg.get("accessible", range(n_z - 1)))
    inacc = tuple(cfg.get("inaccessible", [n_z - 1]))
    g1 = _number("g1", cfg.get("g1", 0.0))
    g2 = _number("g2", cfg.get("g2", np.log2(model.joint.shape[3])))
    rep_d = dv.cmi_decomposition_report(model)
    rows = [("per_z", z, c) for z, c in enumerate(rep_d.per_z)]
    rows.append(("total", "", rep_d.total))
    res = dv.constrained_cmi_max(model, dv.AccessMask(acc, inacc), g1, g2)
    rows.append(("equivocation", "", res.equivocation))
    rows.append(("feasible", "", int(res.feasible)))
    if res.feasible:
        rows.append(("cmi_max", "", res.cmi))
        rows.extend(("weight", z, w) for z, w in enumerate(res.weights))
    return "metric,index,value", rows, 0


RUNNERS = {
    "convergence-cdf": run_convergence_cdf,
    "mi-tradeoff": run_mi_tradeoff,
    "secrecy-gap": run_secrecy_gap,
    "mfg": run_mfg,
    "lohe": run_lohe,
    "stackelberg": run_stackelberg,
    "nash": run_nash,
    "plant": run_plant,
    "divergence": run_divergence,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mirrorwyner")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--repetitions", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        if args.repetitions < 1:
            raise ValidationError("repetitions: must be >= 1")
        runner = RUNNERS[args.subcommand]
        all_rows, header, status = [], None, 0
        for rep in range(args.repetitions):
            header, rows, code = runner(cfg, args.seed + rep, rep)
            status = max(status, code)
            all_rows.extend((rep,) + tuple(r) for r in rows)
        _write(args.out, "rep," + header, all_rows)
        return status
    except (ValidationError, ConfigurationError, KeyError) as exc:
        field = str(exc).split(":", 1)[0].strip("'\" ")
        print(json.dumps({"error": type(exc).__name__, "field": field,
                          "message": str(exc)}), file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(json.dumps({"error": type(exc).__name__, "field": args.subcommand,
                          "message": str(exc)}), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
