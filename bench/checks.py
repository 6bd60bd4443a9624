"""Output checks, run after the timed region. Each compares the program's
output with a computation made here apart from the program (entropy sums
over enumerated joints, matrix ranks, brute-force maxima) or with a property
the method must have. None compares with a stored copy of earlier output.

Every check returns a list of violation strings; an empty list passes.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9
MFG_VARIANCE_TOL = 1e-6       # heat-kernel discretisation error, 6.2e-7 observed
LOHE_NORM_TOL = 1e-8
FULL_JOINT_CAP = 1 << 20      # entries; above it each condition gets its own marginal
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


# ---------------------------------------------------------------------------
# Information measures from entropies (the program uses D(joint || product))
# ---------------------------------------------------------------------------

def entropy(table) -> float:
    p = np.asarray(table, dtype=float).ravel()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def mi_split(table, n_head: int) -> float:
    """I(A; B) for a table whose first n_head axes are A and the rest B."""
    t = np.asarray(table, dtype=float)
    head = tuple(range(n_head))
    tail = tuple(range(n_head, t.ndim))
    return entropy(t.sum(axis=tail)) + entropy(t.sum(axis=head)) - entropy(t)


# ---------------------------------------------------------------------------
# Mirror-game conditions by enumeration of the joint distribution
# ---------------------------------------------------------------------------

class MirrorJoint:
    """The joint of S and every Bob's (X_q, Yo_q, Yv_q), where X_q depends on
    S alone and both outputs are drawn from X_q. Marginals over any ordered
    choice of variables come either from one enumerated full joint, when it
    fits under FULL_JOINT_CAP, or from a sum over S built for that choice."""

    def __init__(self, joints, originals, virtuals):
        self.p_s = np.asarray(joints[0], dtype=float).sum(axis=1)
        self.x_given_s = [np.asarray(j, dtype=float) / self.p_s[:, None] for j in joints]
        self.o = [np.asarray(m, dtype=float) for m in originals]
        self.v = [np.asarray(m, dtype=float) for m in virtuals]
        self.q_count = len(joints)
        sizes = [self.p_s.size] + [self.x_given_s[q].shape[1] * self.o[q].shape[1]
                                   * self.v[q].shape[1] for q in range(self.q_count)]
        self.full = None
        if int(np.prod(sizes, dtype=float)) <= FULL_JOINT_CAP:
            self.full = self._build(True, [(q, "xov") for q in range(self.q_count)])

    def _block(self, q, keep):
        """P(kept variables of Bob q | S) with axes (S, *keep)."""
        spec = "sx,xo,xv->s" + keep
        return np.einsum(spec, self.x_given_s[q], self.o[q], self.v[q])

    def _build(self, keep_s, choice):
        it = iter(LETTERS)
        operands, subs, out = [self.p_s], ["s"], ["s"] if keep_s else []
        for q, keep in choice:
            letters = "".join(next(it) for _ in keep)
            operands.append(self._block(q, keep))
            subs.append("s" + letters)
            out.append(letters)
        return np.einsum(",".join(subs) + "->" + "".join(out), *operands)

    def marginal(self, keep_s, choice):
        """Joint of (S if keep_s) followed by the variables in `choice`, a
        list of (bob, letters) with letters drawn from "xov" in that order."""
        if self.full is None:
            return self._build(keep_s, choice)
        axis = {}
        for q in range(self.q_count):
            for k, name in enumerate("xov"):
                axis[(q, name)] = 1 + 3 * q + k
        order = ([0] if keep_s else []) + [axis[(q, c)] for q, keep in choice for c in keep]
        drop = tuple(a for a in range(self.full.ndim) if a not in order)
        kept = sorted(order)
        return self.full.sum(axis=drop).transpose([kept.index(a) for a in order])


def condition_oracle(joints, originals, virtuals, symbol_values):
    """Conditions (i)-(vii) per Bob, shape (Q, 7), plus the per-Bob
    I(S; X_q) and H(X_q) that bound them."""
    mj = MirrorJoint(joints, originals, virtuals)
    q_count = mj.q_count
    vals = np.zeros((q_count, 7))
    i_sx, h_x = np.zeros(q_count), np.zeros(q_count)
    for q in range(q_count):
        others = [p for p in range(q_count) if p != q]
        vals[q, 0] = mi_split(mj.marginal(False, [(q, "xo")]), 1)
        vals[q, 1] = mi_split(mj.marginal(True, [(q, "o")]), 1)
        vals[q, 2] = mi_split(mj.marginal(False, [(q, "x")] + [(p, "ov") for p in others]), 1)
        p_v = mj.marginal(False, [(q, "v")])
        vals[q, 3] = float(np.sum(p_v * np.asarray(symbol_values[q], dtype=float) ** 2))
        vals[q, 4] = mi_split(mj.marginal(False, [(q, "o")] + [(p, "v") for p in others]), 1)
        vals[q, 5] = mi_split(mj.marginal(False, [(q, "x")] + [(p, "v") for p in others]), 1)
        vals[q, 6] = mi_split(mj.marginal(False, [(q, "ov")]), 1)
        i_sx[q] = mi_split(mj.marginal(True, [(q, "x")]), 1)
        h_x[q] = entropy(mj.marginal(False, [(q, "x")]))
    return vals, i_sx, h_x


def check_solve(oracle, program_vals):
    """The program's condition values for one returned assignment against
    the enumeration (`condition_oracle`'s result), and the data-processing
    bounds the model implies."""
    vals, i_sx, h_x = oracle
    pv = np.asarray(program_vals, dtype=float)
    errs = []
    diff = np.abs(pv - vals)
    if not np.all(np.isfinite(pv)) or diff.max() > TOL:
        q, i = np.unravel_index(int(np.argmax(diff)), diff.shape)
        errs.append(f"condition ({i + 1}) of Bob {q}: program {pv[q, i]!r}, "
                    f"enumeration {vals[q, i]!r}")
    for q in range(pv.shape[0]):
        u, leak, exp3, _, c5, c6, c7 = pv[q]
        i_sy = vals[q, 1]
        bounds = (
            ("leakage <= I(S;X)", leak, i_sx[q]),
            ("(iii) <= I(S;X)", exp3, i_sx[q]),
            ("(vi) <= (iii)", c6, exp3),
            ("(v) <= I(Yo;S)", c5, i_sy),
            ("(v) <= (vi)", c5, c6),
            ("utility <= H(X)", u, h_x[q]),
            ("(vii) <= utility", c7, u),
        )
        errs.extend(f"Bob {q}: {name} fails ({lhs!r} > {rhs!r})"
                    for name, lhs, rhs in bounds if lhs > rhs + TOL)
    return errs


def check_run_row(row, vals, gammas, relaxed, budget, iterations):
    """The `run` row that reports one greedy solve, against that solve.

    `vals` are the enumerated condition values of the returned assignment
    and `gammas` the instance's (gamma0, gamma1, gamma2, gamma3). The
    unrelaxed feasibility flag is re-derived from `vals` with the strict
    tests of conditions (i)-(vii), at the model's 1e-9 tolerance. The
    relaxed solver sets its own utility floor, so its flag is only held to
    the ceilings (ii)-(iv) it must imply."""
    if row is None:
        return ["no run row reports this solve"]
    iters, converged, feasible = int(row[3]), row[4] == "1", row[5] == "1"
    errs = []
    if iters != iterations:
        errs.append(f"run row reports {iters} passes, the solve made {iterations}")
    if not 1 <= iters <= budget:
        errs.append(f"{iters} passes outside [1, {budget}]")
    if converged and not feasible:
        errs.append("run row reports converged but not feasible")
    g0, g1, g2, g3 = gammas
    ceilings = ((vals[:, 1] <= g0 + TOL) & (vals[:, 2] <= g3 + TOL)
                & (vals[:, 3] <= g1 + TOL))
    if relaxed:
        if feasible and not ceilings.all():
            errs.append("relaxed run row reports feasible above a ceiling")
    else:
        want = bool(np.all(ceilings & (vals[:, 0] >= g2 - TOL) & (vals[:, 4] > TOL)
                           & (vals[:, 5] > TOL) & (vals[:, 6] <= TOL)))
        if feasible != want:
            errs.append(f"run row feasible flag {int(feasible)}, "
                        f"the enumeration gives {int(want)}")
    return errs


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

def csv_rows(text):
    """Data rows of a CLI CSV as lists of strings, the `rep` column dropped."""
    lines = text.strip("\n").split("\n")
    return [line.split(",")[1:] for line in lines[1:]]


# ---------------------------------------------------------------------------
# convergence-cdf
# ---------------------------------------------------------------------------

def run_rows(text):
    """The `run` rows of a convergence-cdf CSV by (variant, greedy seed)."""
    return {(r[1], int(r[2])): r for r in csv_rows(text) if r and r[0] == "run"}


def check_cdf_csv(config, text):
    rows = csv_rows(text)
    runs = [r for r in rows if r[0] == "run"]
    cdf = [r for r in rows if r[0] == "cdf"]
    errs = []
    variants = ("relaxed", "unrelaxed")
    n_jobs = len(variants) * len(config["seeds"])
    per = {v: np.array([int(r[3]) for r in runs if r[1] == v and int(r[3]) >= 0])
           for v in variants}
    grid = np.unique(np.concatenate([a for a in per.values() if a.size])) \
        if any(a.size for a in per.values()) else np.array([])
    if [int(r[2]) for r in cdf] != [int(t) for t in grid]:
        errs.append("cdf grid differs from the run rows' iteration counts")
    else:
        for r, t in zip(cdf, grid):
            for k, v in enumerate(variants):
                want = float(np.mean(per[v] <= t)) if per[v].size else 0.0
                if abs(float(r[3 + k]) - want) > TOL:
                    errs.append(f"cdf row t={t}: {v} fraction {r[3 + k]} != {want!r}")
    completed = [r for r in rows if r[0] == "summary" and r[1] == "completed"]
    if len(runs) != n_jobs:
        errs.append(f"{len(runs)} run rows for {n_jobs} jobs")
    if len(completed) != 1 or int(completed[0][5]) != n_jobs:
        errs.append(f"completed row does not equal the job count {n_jobs}")
    elif [int(completed[0][3]), int(completed[0][4])] != [per[v].size for v in variants]:
        errs.append("completed counts differ from the run rows")
    return errs


# ---------------------------------------------------------------------------
# mi-tradeoff and secrecy-gap on the reference binary instance
# ---------------------------------------------------------------------------

def reference_x_marginal():
    """P(X) of the reference instance: S ~ Bernoulli(1/2) through BSC(0.15)."""
    p_s = np.array([0.5, 0.5])
    bsc = np.array([[0.85, 0.15], [0.15, 0.85]])
    return p_s @ bsc


def grid_utilities(resolution):
    p_x = reference_x_marginal()
    ticks = np.linspace(0.0, 1.0, resolution + 1)
    return np.array([mi_split(p_x[:, None] * np.array([[a, 1 - a], [b, 1 - b]]), 1)
                     for a in ticks for b in ticks])


def _monotone_errs(rows, key_col, value_col, label):
    errs = []
    by_key = {}
    for r in rows:
        by_key.setdefault(r[key_col], []).append((int(r[1]), float(r[value_col])))
    for key, seq in by_key.items():
        vals = [v for _, v in sorted(seq)]
        if any(b < a - TOL for a, b in zip(vals, vals[1:])):
            errs.append(f"{label} decreases at b_magnitude {key}")
    return errs


def check_tradeoff_csv(config, text):
    rows = csv_rows(text)
    grid = grid_utilities(config["resolution"])
    h_x = entropy(reference_x_marginal())
    n_expected = len(config["b_magnitudes"]) * config["grid_points"]
    errs = [] if len(rows) == n_expected else [f"{len(rows)} rows, {n_expected} expected"]
    for r in rows:
        u = float(r[4])
        if np.min(np.abs(grid - u)) > TOL:
            errs.append(f"utility {u!r} is no grid mapping's I(X;Yo)")
        if u > h_x + TOL:
            errs.append(f"utility {u!r} exceeds H(X) = {h_x!r}")
    errs.extend(_monotone_errs(rows, 0, 4, "utility"))
    return errs


def check_gap_csv(config, text):
    rows = csv_rows(text)
    n_expected = len(config["b_magnitudes"]) * config["grid_points"]
    errs = [] if len(rows) == n_expected else [f"{len(rows)} rows, {n_expected} expected"]
    errs.extend(_monotone_errs(rows, 0, 3, "gap"))
    for r in rows:
        if not 0.0 <= float(r[4]) <= 1.0:
            errs.append(f"leakage chance {r[4]} outside [0, 1]")
    return errs


# ---------------------------------------------------------------------------
# field suite
# ---------------------------------------------------------------------------

def check_mfg_csv(config, text):
    g = config["grid"]
    rows = csv_rows(text)
    n_t, n_x = g["n_t"], g["n_x"]
    if len(rows) != n_t * n_x:
        return [f"{len(rows)} rows, {n_t * n_x} expected"]
    xs = np.array([float(r[1]) for r in rows[:n_x]])
    dens = np.array([float(r[3]) for r in rows]).reshape(n_t, n_x)
    dx = (g["x_max"] - g["x_min"]) / (n_x - 1)
    errs = []
    if np.any(dens < 0):
        errs.append("negative density")
    mass = dens.sum(axis=1) * dx
    if np.max(np.abs(mass - 1.0)) > TOL:
        errs.append(f"density mass off by {np.max(np.abs(mass - 1.0)):.3g}")
    mean = dens @ xs * dx
    var = dens @ xs**2 * dx - mean**2
    var0 = float(np.asarray(g["initial_density"]) @ xs**2 * dx
                 - (np.asarray(g["initial_density"]) @ xs * dx) ** 2)
    heat = var0 + 2 * g["sigma"] ** 2 * g["dt"] * np.arange(n_t)
    if np.max(np.abs(var - heat)) > MFG_VARIANCE_TOL:
        errs.append(f"variance off the heat kernel by {np.max(np.abs(var - heat)):.3g}")
    return errs


def check_lohe_csv(config, text):
    errs = []
    for r in csv_rows(text):
        lo, hi = float(r[2]), float(r[3])
        if abs(lo - 1.0) > LOHE_NORM_TOL or abs(hi - 1.0) > LOHE_NORM_TOL:
            errs.append(f"step {r[0]}: state norm in [{lo!r}, {hi!r}]")
        if not -TOL <= float(r[1]) <= 1.0 + TOL:
            errs.append(f"step {r[0]}: sync order {r[1]} outside [0, 1]")
    return errs


def check_nash_csv(config, text):
    (row,) = csv_rows(text)
    w = np.asarray(config["weights"], dtype=float)
    colors = np.array([int(c) for c in row[0].split("|")])
    errs = [] if (row[2], row[3]) == ("1", "1") else ["not reported converged and Nash"]
    for i in range(w.shape[0]):
        others = np.arange(w.shape[0]) != i
        payoff = [float(w[i, others & (colors == c)].sum()) for c in range(config["k"])]
        if max(payoff) > payoff[colors[i]] + TOL:
            errs.append(f"player {i} improves by switching from color {colors[i]}")
    return errs


def check_plant_csv(config, text):
    (row,) = csv_rows(text)
    a1, a2, a3, a4 = (np.asarray(config[k], dtype=float) for k in ("a1", "a2", "a3", "a4"))
    n = a1.shape[0]
    ctrb = np.hstack([np.linalg.matrix_power(a1, i) @ a2 for i in range(n)])
    obsv = np.vstack([a3 @ np.linalg.matrix_power(a1, i) for i in range(n)])
    want_c, want_o = np.linalg.matrix_rank(ctrb), np.linalg.matrix_rank(obsv)
    errs = []
    if int(row[1]) != want_c or row[2] != str(int(want_c == n)):
        errs.append(f"controllability rank {row[1]} != {want_c}")
    if int(row[3]) != want_o or row[4] != str(int(want_o == n)):
        errs.append(f"observability rank {row[3]} != {want_o}")
    rho = float(np.max(np.abs(np.linalg.eigvals(a1 + a2 @ a4 @ a3))))
    if abs(float(row[5]) - rho) > TOL * max(1.0, rho):
        errs.append(f"spectral radius {row[5]} != {rho!r}")
    return errs


def check_stackelberg_csv(config, text):
    laws = [np.asarray(l, dtype=float) for l in config["laws"]]
    pay = np.asarray(config["payoffs"], dtype=float)
    drift = np.asarray(config["drift"], dtype=float)
    errs = []
    rows = csv_rows(text)
    if [int(r[0]) for r in rows] != list(config["stages"]):
        errs.append("stage rows differ from the configured stages")
    for r in rows:
        stage, li, a, value = int(r[0]), int(r[1]), int(r[2]), float(r[3])
        staged = laws
        if stage:
            staged = [np.clip(l + stage * drift, 1e-12, None) for l in laws]
            staged = [l / l.sum(axis=1, keepdims=True) for l in staged]
        scores = np.array([(l * pay).sum(axis=1) for l in staged])  # (law, action)
        best = float(scores.max())
        if abs(value - best) > TOL or abs(scores[li, a] - best) > TOL:
            errs.append(f"stage {stage}: value {value!r} (law {li}, action {a}) "
                        f"but the brute-force maximum is {best!r}")
    return errs


def check_divergence_csv(config, text):
    joint = np.asarray(config["joint"], dtype=float)
    xyz = joint.sum(axis=3)
    p_z = xyz.sum(axis=(0, 1))
    want = sum(p_z[z] * mi_split(xyz[:, :, z] / p_z[z], 1) for z in range(p_z.size))
    rows = csv_rows(text)
    per_z = [float(r[2]) for r in rows if r[0] == "per_z"]
    total = [float(r[2]) for r in rows if r[0] == "total"]
    errs = []
    if len(total) != 1 or abs(total[0] - want) > TOL:
        errs.append(f"total CMI {total} != {want!r}")
    if abs(sum(per_z) - want) > TOL:
        errs.append("per-slice contributions do not sum to the CMI")
    return errs


CSV_CHECKS = {
    "convergence-cdf": check_cdf_csv,
    "mi-tradeoff": check_tradeoff_csv,
    "secrecy-gap": check_gap_csv,
    "mfg": check_mfg_csv,
    "lohe": check_lohe_csv,
    "nash": check_nash_csv,
    "plant": check_plant_csv,
    "stackelberg": check_stackelberg_csv,
    "divergence": check_divergence_csv,
}


def check_call(subcommand, config, rc, text):
    """Exit code and CSV checks for one `cli.main` call."""
    if rc != 0:
        return [f"{subcommand} exited with {rc}"]
    try:
        return CSV_CHECKS[subcommand](config, text)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{subcommand} CSV unreadable: {exc!r}"]
