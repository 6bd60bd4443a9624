"""Batch experiment runner: every module exposed as a subcommand emitting
deterministic CSV. Plotting is external; configs are JSON.

Exit codes: 0 success, 1 a declared output assertion failed, 2 usage error,
3 invalid payload, 4 arithmetic failure in a run (both with machine-readable
error JSON on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import divergence as dv
from . import equilibrium, mirror, nonstationary, plant, prob, solvers
from .errors import ConfigurationError, ValidationError
from .mirror import UncertaintyModel
from .prob import JointPmf2, PrivacyMapping

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


def _positive(key, value):
    """A config value as a float > 0, failing under its config key."""
    x = _number(key, value)
    if not x > 0:
        raise ValidationError(f"{key}: need a positive number, got {value!r}")
    return x


def _list(cfg, key, default):
    value = cfg.get(key, default)
    if not isinstance(value, (list, range, tuple)):
        raise ValidationError(f"{key}: need a list, got {value!r}")
    return value


def _flag(cfg, key, default):
    value = cfg.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{key}: need true or false, got {value!r:.60}")
    return value


def _floats(key, value):
    """A config value, a number or nested lists of numbers, as a float array;
    anything else (strings and bools included) fails under its config key."""
    try:
        arr = np.asarray(value)
    except ValueError:   # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"{key}: need numbers or nested lists of numbers, "
                              f"got {value!r:.60}")
    return arr.astype(float)


def _record(key, cls, value):
    """cls.from_jsonable of a config object. A value that is not an object
    of cls's fields fails under its config key; cls's own checks name cls."""
    if not isinstance(value, dict):
        raise ValidationError(f"{key}: need an object, got {value!r:.60}")
    try:
        return cls.from_jsonable(value)
    except (ValidationError, ConfigurationError):
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key}: {exc}") from None


def _fmt(v) -> str:
    # exact Python floats and ints first: most cells are one or the other
    kind = type(v)
    if kind is float:
        if v != v:
            raise ValidationError("output: NaN cell with no tag")
        return f"{v:.12g}"
    if kind is int:
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer, np.bool_)):
        return str(int(v))
    v = float(v)
    if v != v:
        raise ValidationError("output: NaN cell with no tag")
    return f"{v:.12g}"


# `%` specs that format an exact float, int or str cell as `_fmt` does,
# a NaN float aside
_SPECS = {float: "%.12g", int: "%d", str: "%s"}


def _write(out_path, header, rows):
    """Write the CSV text. A row whose cells are all exact floats, ints and
    strs is one `%` format, cached per tuple of cell types; any other row, or
    a line that reads "nan" (a NaN cell, or a string holding it), goes
    through `_fmt` cell by cell, which rejects the NaN."""
    formats, lines = {}, [header]
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = (",".join(map(_SPECS.get, kinds))
                                    if all(k in _SPECS for k in kinds) else False)
        line = fmt % tuple(row) if fmt else None
        if line is None or "nan" in line:
            line = ",".join(map(_fmt, row))
        lines.append(line)
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
    # `mirror.ConstraintSet.build` checks for three positive floors
    eps = tuple(_number("eps", e) for e in _list(cfg, "eps", solvers.DEFAULT_EPS))
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
    """The `instance` object read by the rules of top-level keys, a missing,
    unknown or bad field failing under `instance` by name; the reference one
    if absent."""
    if "instance" not in cfg:
        return mirror.reference_binary_instance()
    data = cfg["instance"]
    if not isinstance(data, dict):
        raise ValidationError(f"instance: need an object, got {data!r:.60}")
    names = [f.name for f in fields(mirror.MirrorGameInstance) if f.init]
    for key in data:
        if key not in names:
            raise ValidationError(f"instance: {key}: unknown key")
    for name in names:
        if name not in data:
            raise ValidationError(f"instance: {name}: missing")
    try:
        joints = [_floats("joints", j) for j in _list(data, "joints", None)]
        kw = {k: _floats(k, data[k]) for k in ("gamma0", "gamma1", "theta_levels", "symbol_values")}
        kw.update((k, _number(k, data[k], k == "virtual_alphabet"))
                  for k in ("gamma2", "gamma3", "virtual_alphabet"))
    except ValidationError as exc:
        raise ValidationError(f"instance: {exc}") from None
    return mirror.MirrorGameInstance(joints=tuple(map(JointPmf2, joints)), **kw)


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
        stat, p_confirm = prob.ks_one_sided(per["relaxed"], per["unrelaxed"], "greater")
        _, p_violate = prob.ks_one_sided(per["relaxed"], per["unrelaxed"], "less")
        ok = p_violate >= 0.05
        rows.append(("summary", "ks_dominates", "", stat, p_confirm, int(ok), ""))
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
    exposure = mirror._cross_mi(inst.p_s, inst.x_given_s(q),
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
    grid = _record("grid", nonstationary.MfgGrid, cfg.get("grid", _default_mfg_payload()))
    sol = nonstationary.mfg_solve(
        grid, tol=_number("tol", cfg.get("tol", 1e-6)),
        max_sweeps=_number("max_sweeps", cfg.get("max_sweeps", 50), True, 1),
        damping=_number("damping", cfg.get("damping", 0.5)))
    print(json.dumps({"converged": bool(sol.converged),
                      "sweeps": len(sol.residuals),
                      "final_residual": float(sol.residuals[-1])}),
          file=sys.stderr)
    rows = list(zip(np.repeat(np.arange(grid.n_t), grid.n_x).tolist(),
                    np.tile(grid.xs, grid.n_t).tolist(),
                    sol.value.ravel().tolist(), sol.density.ravel().tolist()))
    return "k,x,J,P_df", rows, 0


def run_lohe(cfg, seed, rep):
    q = _number("q", cfg.get("q", 4), True, 1)
    d = _number("d", cfg.get("d", 2), True, 1)
    coupling = cfg.get("coupling", "aligning")
    if coupling not in ("aligning", "printed"):
        raise ValidationError(f"coupling: must be 'aligning' or 'printed', got {coupling!r:.60}")
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(q, d)) + 1j * rng.normal(size=(q, d))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    h = rng.normal(size=(q, d, d))
    hams = (h + h.transpose(0, 2, 1)) / 2
    if _flag(cfg, "common_hamiltonian", True):
        hams = np.broadcast_to(hams[0], (q, d, d)).copy()
    sys_ = nonstationary.LoheSystem(
        states=states, hamiltonians=hams, hbar=_positive("hbar", cfg.get("hbar", 1.0)),
        alpha=_number("alpha", cfg.get("alpha", 1.0)), coupling=coupling)
    dt = _positive("dt", cfg.get("dt", 1e-2))
    steps = _number("steps", cfg.get("steps", 500), True, 1)
    stride = _number("stride", cfg.get("stride", 10), True, 1)
    kept = nonstationary.lohe_integrate(sys_, dt, steps)[::stride]
    norms = np.linalg.norm(kept, axis=2)
    rows = zip(range(0, steps + 1, stride), nonstationary.sync_order(kept).tolist(),
               norms.min(axis=1).tolist(), norms.max(axis=1).tolist())
    return "step,sync_order,min_norm,max_norm", list(rows), 0


def run_stackelberg(cfg, seed, rep):
    if "laws" in cfg:
        inst = nonstationary.StackelbergInstance(
            leader_laws=tuple(_floats("laws", l) for l in _list(cfg, "laws", None)),
            payoffs=_floats("payoffs", cfg["payoffs"]),
            leader_drift=None if cfg.get("drift") is None else _floats("drift", cfg["drift"]))
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
        game = equilibrium.KCutGame(_floats("weights", cfg["weights"]),
                                    _number("k", cfg["k"], True),
                                    cfg.get("payoff_mode", "same_color"))
    else:
        rng = np.random.default_rng(seed)
        n = _number("n", cfg.get("n", 8), True, 1)
        w = rng.uniform(0, 1, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        game = equilibrium.KCutGame(w, _number("k", cfg.get("k", 3), True))
    init = equilibrium.StrategyProfile(tuple(
        _number("init", c, True) for c in _list(cfg, "init", [0] * game.n)))
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
        p = plant.LinearPlant(**{k: _floats(k, cfg[k]) for k in keys if k in cfg})
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
        model = dv.LatentModel(_floats("joint", cfg["joint"]),
                               *(_number(f"theta{i}", cfg.get(f"theta{i}", 1.0))
                                 for i in range(4)))
    else:
        rng = np.random.default_rng(seed)
        model = dv.LatentModel(rng.dirichlet(np.ones(2 * 3 * 4 * 2)).reshape(2, 3, 4, 2))
    n_z = model.p_z().size
    acc, inacc = (tuple(_number(key, z, True) for z in _list(cfg, key, default))
                  for key, default in (("accessible", range(n_z - 1)),
                                       ("inaccessible", [n_z - 1])))
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


def _run(args) -> int:
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


# built on first use, then kept: `main` may be called many times in one process
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # A failed run reports one JSON line on stderr, so the warnings a run
    # raises are held back and shown only once it has finished.
    with warnings.catch_warnings(record=True) as caught:
        try:
            status = _run(args)
        except (ValidationError, ConfigurationError, KeyError) as exc:
            field = str(exc).split(":", 1)[0].strip("'\" ")
            print(json.dumps({"error": type(exc).__name__, "field": field,
                              "message": str(exc)}), file=sys.stderr)
            return 3
        except ArithmeticError as exc:
            print(json.dumps({"error": type(exc).__name__, "field": args.subcommand,
                              "message": str(exc)}), file=sys.stderr)
            return 4
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return status


if __name__ == "__main__":
    sys.exit(main())
