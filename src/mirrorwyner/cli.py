"""Batch experiment runner: every module exposed as a subcommand emitting
deterministic CSV. Plotting is external; configs are JSON.

Exit codes: 0 success, 1 a declared output assertion failed, 2 usage error,
3 invalid payload, 4 arithmetic failure in a run (both with machine-readable
error JSON on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np

from . import divergence as dv
from . import equilibrium, mirror, nonstationary, plant, prob, solvers
from .errors import ConfigurationError, ValidationError
from .mirror import UncertaintyModel
from .prob import JointPmf2


def _unique_keys(pairs):
    """A JSON object's dict; a key given twice fails rather than the last
    value silently winning."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"config: repeated key {key!r}")
        obj[key] = value
    return obj


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except ValidationError:   # a repeated key
        raise
    except ValueError as exc:   # malformed, not UTF-8, or an integer past the digit limit
        raise ValidationError(f"config: malformed JSON ({exc})")
    except OSError as exc:
        raise ValidationError(f"config: unreadable ({exc})")
    if not isinstance(cfg, dict):
        raise ValidationError(f"config: top level must be a JSON object, not {type(cfg).__name__}")
    return cfg


def _number(key, value, integral=False, lo=-np.inf, hi=np.inf):
    """A config value as an int (integral=True) or a finite float in [lo, hi].
    Anything else, bools, strings, NaN and infinities included, fails under
    its config key, as does an int too large for a float where a float is
    read."""
    kind = "an integer" if integral else "a finite number"
    error = ValidationError(f"{key}: need {kind} in [{lo}, {hi}], got {value!r}")
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not math.isfinite(value)
            or not lo <= value <= hi
            or integral and isinstance(value, float) and not value.is_integer()):
        raise error
    if integral:
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise error from None


def _positive(key, value, hi=np.inf):
    """A config value as a float in (0, hi], failing under its config key."""
    x = _number(key, value)
    if not 0 < x <= hi:
        raise ValidationError(f"{key}: need a number in (0, {hi}], got {value!r}")
    return x


def _floats(key, value):
    """A config value, a finite number or nested lists of them, as a float
    array; anything else, strings and bools included, fails under its key."""
    try:
        arr = np.asarray(value)
    except ValueError:   # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValidationError(f"{key}: need finite numbers or nested lists of them, "
                              f"got {value!r:.60}")
    return arr.astype(float)


def _list(read):
    """A reader of a list whose every entry `read` reads under the list's key."""
    def read_list(key, value):
        if not isinstance(value, (list, range, tuple)):
            raise ValidationError(f"{key}: need a list, got {value!r:.60}")
        return tuple(read(key, v) for v in value)
    return read_list


def _int(lo=-np.inf):
    return functools.partial(_number, integral=True, lo=lo)


def _choice(*options):
    """A reader of one of `options`, of the same type too: `1` is not `true`."""
    def read(key, value):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ValidationError(f"{key}: must be one of {options}, got {value!r:.60}")
        return value
    return read


def _seeds(key, value):
    seeds = _list(_int(0))(key, value)
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValidationError(f"{key}: need distinct seeds, got {list(seeds)}")
    return seeds


def _parse(table, cfg, prefix=""):
    """A config object's values by its table: an unknown key fails first,
    then each key in table order. An absent key is missing if its default is
    `_REQUIRED` or a key that needs it is given; otherwise its default is read
    as a given value would be, and a default of None is left to the runner.
    Errors name a key after `prefix`, the outer key of a nested object."""
    for key in cfg:
        if key not in table:
            raise ValidationError(f"{prefix}{key}: unknown key")
    values = dict.fromkeys(table)
    for key, (read, default, *needed_by) in table.items():
        if key not in cfg and (default is _REQUIRED or any(k in cfg for k in needed_by)):
            raise ValidationError(f"{prefix}{key}: missing")
        if key in cfg or default is not None:
            values[key] = read(prefix + key, cfg.get(key, default))
    return values


def _object(table, build):
    """A reader of a JSON object whose keys `table` reads and `build` takes by
    name; a bad key fails under the outer one, as `grid: bogus: unknown key`."""
    def read(key, value):
        if not isinstance(value, dict):
            raise ValidationError(f"{key}: need an object, got {value!r:.60}")
        return build(**_parse(table, value, f"{key}: "))
    return read


@functools.cache
def _spec(kind):
    """The `%` spec of a CSV cell of type `kind`, the one definition of a
    cell's text: a str as it is, an int, bool or numpy integer or bool as an
    integer, anything else as a float to 12 significant digits."""
    if issubclass(kind, str):
        return "%s"
    if issubclass(kind, (int, np.integer, np.bool_)):
        return "%d"
    return "%.12g"


def _fmt(v) -> str:
    text = _spec(type(v)) % v
    if text == "nan" and not isinstance(v, str):
        raise ValidationError("output: NaN cell with no tag")
    return text


def _lines(rows, lead):
    """The CSV text of the list `rows`, each line after the cell `lead`, a
    fixed part of the format rather than a cell copied into every row. A
    chunk whose rows all have the first row's width and cell types is one
    `%` format, searched for "nan" once. Any other chunk, and one whose text
    reads "nan" (a NaN cell, or a string holding it), goes through `_fmt`
    cell by cell, which rejects the NaN."""
    cells = tuple(itertools.chain.from_iterable(rows))
    kinds = list(map(type, cells))
    first = kinds[:len(rows[0])]
    if set(map(len, rows)) == {len(first)} and kinds == first * len(rows):
        text = (",".join((lead, *map(_spec, first))) + "\n") * len(rows) % cells
        if "nan" not in text:
            return [text]
    return [",".join((lead, *map(_fmt, r))) + "\n" for r in rows]


# Rows that `_write` formats at a time: the cells, their types and the row
# tuples of one chunk are all that is held besides the text.
CHUNK_ROWS = 1024


def _write(out_path, header, reps):
    """Write the CSV text: `header`, then a line per row of each repetition
    in `reps`, each an iterable of rows, generators included, and each line
    led by its repetition's index. The rows are formatted CHUNK_ROWS at a
    time, all of them before the output opens, so a NaN cell writes
    nothing."""
    pieces = [header + "\n"]
    for rep, table in enumerate(reps):
        table = iter(table)
        while chunk := list(itertools.islice(table, CHUNK_ROWS)):
            pieces += _lines(chunk, str(rep))
    if out_path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(out_path, "w", newline="\n") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ValidationError(f"out: unwritable ({exc})")


# ---------------------------------------------------------------------------
# Batch experiment: iterations-to-converge CDFs, relaxed vs unrelaxed
# ---------------------------------------------------------------------------

def run_convergence_cdf(c, seed):
    seeds, n_seeds = c["seeds"], c["n_seeds"]
    if seeds and n_seeds not in (None, len(seeds)):
        raise ValidationError(f"n_seeds: {n_seeds} differs from the {len(seeds)} seeds given")
    eps = c["eps"]
    variants = [("relaxed", dict(relaxed=True, eps=eps)),
                ("unrelaxed", dict(relaxed=False, eps=eps))]
    if c["mode"] == "three":
        variants.append(("relaxed_tight", dict(relaxed=True, eps=tuple(e / 10 for e in eps))))
    for name, kw in variants:   # the floors a relaxed solve will use, checked before any solve
        if not kw["relaxed"]:
            continue
        try:
            mirror.epsilon_floor(mirror.assemble_p1(c["instance"]), kw["eps"])
        except ValidationError:
            if name == "relaxed":   # the floors as given
                raise
            raise ValidationError(   # eps passed, so its tenth underflowed
                f"eps: mode three's relaxed_tight floors eps / 10 must be positive, got "
                f"{list(kw['eps'])} from eps {list(eps)}") from None
    # one run row per seed and variant, capped before a seed is derived
    n_seeds = len(seeds) if seeds else n_seeds or 40
    _cap_cells("the run rows", {"n_seeds": n_seeds, "variants": len(variants)})
    seeds = seeds or range(seed, seed + n_seeds)   # distinct, and --seed is >= 0

    u = UncertaintyModel(magnitude=c["b_magnitude"])   # greedy_solve does not read it
    per, rows = {}, []
    for name, kw in variants:
        traces = [solvers.greedy_solve(c["instance"], u, budget=c["budget"], seed=s, **kw)[1]
                  for s in seeds]
        per[name] = np.array([t.iterations for t in traces])
        rows += [("run", name, s, t.iterations, int(t.converged), int(bool(t.feasible)), "ok")
                 for s, t in zip(seeds, traces)]
    rows.sort(key=lambda r: r[1:3])

    for t in np.unique(np.concatenate(list(per.values()))):
        fracs = [float(np.mean(per[name] <= t)) for name, _ in variants]
        rows.append(("cdf", "", int(t), *fracs, *[""] * (3 - len(fracs)), ""))
    stat, p_confirm = prob.ks_one_sided(per["relaxed"], per["unrelaxed"], "greater")
    _, p_violate = prob.ks_one_sided(per["relaxed"], per["unrelaxed"], "less")
    ok = p_violate >= 0.05
    rows.append(("summary", "ks_dominates", "", stat, p_confirm, int(ok), ""))
    # every run completes: a failed solve ends the whole run (exit 4)
    n = len(seeds)
    rows.append(("summary", "completed", "", n, n, n * len(variants), ""))
    if c["mode"] == "three":
        rows.append(("summary", "completed_tight", "", n, "", "", ""))
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


def run_mi_tradeoff(c, seed):
    inst, n_samples = c["instance"], c["n_samples"]
    q = 0
    p_x = inst.x_marginal(q)
    if p_x.alphabet_size != 2:
        raise ValidationError("instance: mi-tradeoff sweeps 2x2 mappings, so X_0 must be binary")
    _cap_cells("the leakage draws", {"resolution": (c["resolution"] + 1) ** 2,
                                     "n_samples": n_samples})
    _cap_cells("the leakage bounds", {"grid_points": c["grid_points"]})
    i_sx = prob.mutual_information(inst.joints[q])
    h_x = prob.entropy(p_x)
    grid = _binary_mappings(c["resolution"])
    utilities = mirror._utility(p_x.probs, grid)
    bounds = np.linspace(0.0, i_sx, c["grid_points"])
    rows = []
    for mag in c["b_magnitudes"]:
        draws = np.zeros((len(grid), n_samples))
        for mi, o in enumerate(grid):
            draws[mi] = mirror.sample_leakage(inst, q, o, mag,
                                              np.random.default_rng(seed + 1000 * mi),
                                              n_samples)
        for gi, bound in enumerate(bounds):
            feas = np.mean(draws <= bound + mirror.NULL_TOL, axis=1) >= c["theta"]
            solved = bool(np.any(feas))
            best = float(utilities[feas].max()) if solved else 0.0
            rows.append((mag, gi, bound / i_sx if i_sx > 0 else 0.0,
                         best / h_x if h_x > 0 else 0.0, best, int(solved)))
    header = "b_magnitude,grid_index,leakage_norm,utility_norm,utility_bits,feasible"
    return header, rows, 0


def run_secrecy_gap(c, seed):
    inst = c["instance"]
    q = 0
    if inst.virtual_alphabet != 2 or any(j.table.shape[1] != 2 for j in inst.joints):
        raise ValidationError("instance: secrecy-gap sweeps 2x2 twin mappings, so every "
                              "X_q and the virtual alphabet must be binary")
    _cap_cells("the mapping grid", {"resolution": (c["resolution"] + 1) ** 2})
    _cap_cells("the leakage draws", {"n_samples": c["n_samples"]})
    _cap_cells("the power budgets", {"grid_points": c["grid_points"]})
    p_x = inst.x_marginal(q)
    ident = np.eye(2)
    power_max = float(np.max(inst.symbol_values[q] ** 2))
    budgets = np.linspace(0.0, power_max, c["grid_points"])
    grid = _binary_mappings(c["resolution"])
    # at grid point k every Bob takes the identity original and the virtual
    # rows grid[k]
    exposure = mirror.superposed_exposure(inst, q, [ident] * inst.q_count,
                                          [grid] * inst.q_count)
    gap = mirror._utility(p_x.probs, ident) - exposure
    power = mirror._virtual_power(p_x.probs, grid, inst.symbol_values[q])
    constraints = mirror.assemble_p1(inst)
    rows = []
    for mag in c["b_magnitudes"]:
        # leakage chance under the identity original, per panel
        draws = mirror.sample_leakage(inst, q, ident, mag, np.random.default_rng(seed),
                                      c["n_samples"])
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

def run_mfg(c, seed):
    grid = c["grid"]
    sol = nonstationary.mfg_solve(grid, tol=c["tol"], max_sweeps=c["max_sweeps"],
                                  damping=c["damping"])
    print(json.dumps({"converged": bool(sol.converged),
                      "sweeps": len(sol.residuals),
                      "final_residual": float(sol.residuals[-1])}),
          file=sys.stderr)
    # each grid point's cell repeats on every time row, so it is formatted
    # once; the rows come one time step at a time, as the writer reads them
    xs_text = list(map(_fmt, grid.xs.tolist()))
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(k), xs_text, sol.value[k].tolist(), sol.density[k].tolist())
        for k in range(grid.n_t))
    return "k,x,J,P_df", rows, 0


# Most cells one array of a run may hold: a lohe run's Hamiltonians (q d^2)
# or coupling matrix (q^2), an mfg grid's value and density fields (n_t n_x
# each), the drawn plant (n^2), nash weights (n^2) and a sweep's
# best-response payoffs (n k), the drawn stackelberg
# laws (n_laws n_follower n_leader_state), and a sweep's mapping grid
# ((resolution + 1)^2, times n_samples for mi-tradeoff's leakage draws),
# leakage draws (n_samples) or bounds (grid_points), and a run's repetitions,
# each holding at least one row until the write. A config past it fails
# before allocating. It also bounds the work of a lohe trajectory, whose
# (steps + 1) q d cells are all computed though only every stride-th state
# is held.
CELL_CAP = 2 ** 24


def _cap_cells(what, factors):
    """Fail under the key of the largest factor when the product of
    `factors` (config key -> its factor) exceeds CELL_CAP cells."""
    cells = math.prod(factors.values())
    if cells > CELL_CAP:
        key = max(factors, key=factors.get)
        raise ValidationError(f"{key}: {what} would hold {cells} cells, above the cap "
                              f"of {CELL_CAP}")


def _mfg_grid(n_t, n_x, initial_density, **kw):
    """The MfgGrid of a config's `grid` object, its fields capped first. A
    left-out `n_x` is the size of `initial_density`, which the grid checks
    against a given one; a count below 1 is left to its axis check."""
    if n_x is None:
        n_x = initial_density.size
    _cap_cells("the value and density fields",
               {"grid: n_t": max(n_t, 0), "grid: n_x": max(n_x, 0)})
    return nonstationary.MfgGrid(n_t=n_t, n_x=n_x, initial_density=initial_density, **kw)


def _instance(joints, symbol_values, virtual_alphabet, **kw):
    """The MirrorGameInstance of a config's `instance` object. A left-out
    `virtual_alphabet` is the size of the first `symbol_values` row (0 with
    no row), which the instance checks against every row."""
    if virtual_alphabet is None:
        virtual_alphabet = symbol_values[0].size if symbol_values else 0
    return mirror.MirrorGameInstance(joints=tuple(map(JointPmf2, joints)),
                                     symbol_values=symbol_values,
                                     virtual_alphabet=virtual_alphabet, **kw)


def run_lohe(c, seed):
    q, d, steps, stride = c["q"], c["d"], c["steps"], c["stride"]
    _cap_cells("the Hamiltonians", {"q": q, "d": d * d})
    _cap_cells("the trajectory", {"steps": steps + 1, "q": q, "d": d})
    _cap_cells("the coupling matrix", {"q": q * q})
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(q, d)) + 1j * rng.normal(size=(q, d))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    h = rng.normal(size=(q, d, d))
    hams = (h + h.transpose(0, 2, 1)) / 2
    if c["common_hamiltonian"]:
        hams = np.broadcast_to(hams[0], (q, d, d)).copy()
    sys_ = nonstationary.LoheSystem(states=states, hamiltonians=hams, hbar=c["hbar"],
                                    alpha=c["alpha"], coupling=c["coupling"])
    kept = nonstationary.lohe_integrate(sys_, c["dt"], steps, stride)
    norms = np.linalg.norm(kept, axis=2)
    rows = zip(range(0, steps + 1, stride), nonstationary.sync_order(kept).tolist(),
               norms.min(axis=1).tolist(), norms.max(axis=1).tolist())
    return "step,sync_order,min_norm,max_norm", list(rows), 0


def run_stackelberg(c, seed):
    laws, payoffs = c["laws"], c["payoffs"]
    if laws is None:
        rng = np.random.default_rng(seed)
        n_f, n_u, n_laws = c["n_follower"], c["n_leader_state"], c["n_laws"]
        _cap_cells("the leader laws", {"n_laws": n_laws, "n_follower": n_f, "n_leader_state": n_u})
        laws = rng.dirichlet(np.ones(n_u), size=(n_laws, n_f))
        payoffs = rng.normal(size=(n_f, n_u))
    inst = nonstationary.StackelbergInstance(leader_laws=laws, payoffs=payoffs,
                                             leader_drift=c["drift"])
    rows = []
    for stage in c["stages"]:
        li, a, v = nonstationary.stackelberg_solve(inst, stage=stage)
        rows.append((stage, li, a, v))
    return "stage,leader_law,follower_action,value", rows, 0


def run_nash(c, seed):
    w = c["weights"]
    if w is None:
        _cap_cells("the weights", {"n": c["n"] ** 2})
        rng = np.random.default_rng(seed)
        w = rng.uniform(0, 1, size=(c["n"], c["n"]))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
    game = equilibrium.KCutGame(w, c["k"], c["payoff_mode"])
    _cap_cells("a sweep's best-response payoffs", {"n": game.n, "k": game.k})
    init = equilibrium.StrategyProfile((0,) * game.n if c["init"] is None else c["init"])
    res = equilibrium.best_response_dynamics(game, init)
    is_nash, worst = equilibrium.verify_nash(game, res.profile)
    rows = [("|".join(map(str, res.profile.colors)), res.rounds,
             int(res.converged), int(is_nash),
             equilibrium.potential(game, res.profile))]
    return "colors,rounds,converged,is_nash,potential", rows, 0


def run_plant(c, seed):
    if c["a1"] is not None:
        p = plant.LinearPlant(c["a1"], c["a2"], c["a3"], c["a4"])
    else:
        n = c["n"]
        _cap_cells("the plant matrix", {"n": n * n})
        rng = np.random.default_rng(seed)
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


def run_divergence(c, seed):
    joint = c["joint"]
    if joint is None:
        joint = np.random.default_rng(seed).dirichlet(np.ones(2 * 3 * 4 * 2)).reshape(2, 3, 4, 2)
    model = dv.LatentModel(joint)
    # one of the two index lists fixes the other, as its complement in the Z
    # alphabet; with neither, the last Z value alone is inaccessible
    n_z = model.p_z().size
    acc, inacc = c["accessible"], c["inaccessible"]
    if acc is None and inacc is None:
        inacc = (n_z - 1,)
    if acc is None:
        acc = tuple(sorted(set(range(n_z)) - set(inacc)))
    if inacc is None:
        inacc = tuple(sorted(set(range(n_z)) - set(acc)))
    g2 = float(np.log2(model.joint.shape[3])) if c["g2"] is None else c["g2"]
    if c["g1"] > g2:
        raise ValidationError(f"g1: need g1 <= g2 = {g2!r}, got {c['g1']!r}")
    rep_d = dv.cmi_decomposition_report(model)
    rows = [("per_z", z, v) for z, v in enumerate(rep_d.per_z)]
    rows.append(("total", "", rep_d.total))
    res = dv.constrained_cmi_max(model, dv.AccessMask(acc, inacc), c["g1"], g2)
    rows.append(("equivocation", "", res.equivocation))
    rows.append(("feasible", "", int(res.feasible)))
    if res.feasible:
        rows.append(("cmi_max", "", res.cmi))
        rows.extend(("weight", z, w) for z, w in enumerate(res.weights))
    return "metric,index,value", rows, 0


def _default_mfg_payload():
    n_x, x_min, x_max, s0 = 101, -3.0, 3.0, 0.5
    xs = np.linspace(x_min, x_max, n_x)
    dens = np.exp(-xs**2 / (2 * s0**2))
    dens /= dens.sum() * (xs[1] - xs[0])
    return {"x_min": x_min, "x_max": x_max, "n_x": n_x, "n_t": 100,
            "dt": 0.01, "sigma": 0.1, "initial_density": list(dens)}


# A config table maps each key, in the order keys are read, to (reader,
# default) or (reader, default, a key whose presence makes this one required).
_REQUIRED = object()   # the default of a key that a config must give
_UNIT = functools.partial(_number, lo=0.0, hi=1.0)
INSTANCE_KEYS = {
    "joints": (_list(_floats), _REQUIRED), "gamma0": (_floats, _REQUIRED),
    "gamma1": (_floats, _REQUIRED), "theta_levels": (_floats, _REQUIRED),
    "symbol_values": (_list(_floats), _REQUIRED), "gamma2": (_number, _REQUIRED),
    "gamma3": (_number, _REQUIRED), "virtual_alphabet": (_int(), None)}
GRID_KEYS = {
    "x_min": (_number, _REQUIRED), "x_max": (_number, _REQUIRED), "n_x": (_int(), None),
    "n_t": (_int(), _REQUIRED), "dt": (_number, _REQUIRED), "sigma": (_number, _REQUIRED),
    "initial_density": (_floats, _REQUIRED), "mu_weight": (_floats, None),
    "terminal_value": (_floats, None), "running_cost": (_floats, None),
    "p_bar": (_number, 0.0), "control_max": (_number, 1.0)}
_read_instance = _object(INSTANCE_KEYS, _instance)
_INSTANCE = (_read_instance, mirror.reference_binary_instance().to_jsonable())

SUBCOMMANDS = {
    "mi-tradeoff": (run_mi_tradeoff, {
        "instance": _INSTANCE, "b_magnitudes": (_list(_UNIT), [0.1, 0.5]),
        "n_samples": (_int(1), 64), "grid_points": (_int(2), 6), "resolution": (_int(0), 16),
        "theta": (_UNIT, 0.9)}),
    "secrecy-gap": (run_secrecy_gap, {
        "instance": _INSTANCE, "b_magnitudes": (_list(_UNIT), [0.6, 0.7]),
        "n_samples": (_int(1), 64), "grid_points": (_int(2), 5), "resolution": (_int(0), 16)}),
    "convergence-cdf": (run_convergence_cdf, {
        "instance": _INSTANCE, "n_seeds": (_int(1), None), "budget": (_int(1), 60),
        "b_magnitude": (_UNIT, 0.5), "seeds": (_seeds, None),
        "eps": (_list(_number), solvers.DEFAULT_EPS),  # mirror.epsilon_floor checks the floors
        "mode": (_choice("two", "three"), "two")}),
    "mfg": (run_mfg, {
        "grid": (_object(GRID_KEYS, _mfg_grid), _default_mfg_payload()),
        "tol": (_positive, 1e-6), "max_sweeps": (_int(1), 50),
        "damping": (functools.partial(_positive, hi=1.0), 0.5)}),
    "lohe": (run_lohe, {
        "q": (_int(1), 4), "d": (_int(1), 2),
        "coupling": (_choice("aligning", "printed"), "aligning"),
        "common_hamiltonian": (_choice(True, False), True), "hbar": (_positive, 1.0),
        "alpha": (_number, 1.0), "dt": (_positive, 1e-2), "steps": (_int(1), 500),
        "stride": (_int(1), 10)}),
    "stackelberg": (run_stackelberg, {
        "laws": (_list(_floats), None), "payoffs": (_floats, None, "laws"),
        "drift": (_floats, None), "n_follower": (_int(1), 6), "n_leader_state": (_int(1), 4),
        "n_laws": (_int(1), 8), "stages": (_list(_int()), [0])}),
    "nash": (run_nash, {
        "weights": (_floats, None), "n": (_int(1), 8), "k": (_int(2), 3, "weights"),
        "payoff_mode": (_choice("same_color", "cut"), "same_color"),
        "init": (_list(_int()), None)}),
    "plant": (run_plant, {
        "a1": (_floats, None), "a2": (_floats, None, "a1"), "a3": (_floats, None, "a1"),
        "a4": (_floats, None, "a1"), "n": (_int(1), 4)}),
    "divergence": (run_divergence, {
        "joint": (_floats, None), "accessible": (_list(_int()), None),
        "inaccessible": (_list(_int()), None), "g1": (_number, 0.0), "g2": (_number, None)}),
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
    _cap_cells("the repetitions' rows", {"repetitions": args.repetitions})
    if args.seed < 0:
        raise ValidationError(f"seed: need an integer >= 0, got {args.seed}")
    runner, table = SUBCOMMANDS[args.subcommand]
    values = _parse(table, cfg)
    reps, header, status = [], None, 0
    # a runner's stderr lines are shown once the CSV is written, so a failed run reports one
    with contextlib.redirect_stderr(io.StringIO()) as log:
        for rep in range(args.repetitions):
            header, rows, code = runner(values, args.seed + rep)
            status = max(status, code)
            reps.append(rows)
    _write(args.out, "rep," + header, reps)
    sys.stderr.write(log.getvalue())
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
        except (ValidationError, ConfigurationError) as exc:
            field = str(exc).split(":", 1)[0]
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
