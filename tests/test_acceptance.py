"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line with its measured numbers and enforcing the stated runtime
budget."""

import itertools
import json
import time

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from mirrorwyner import cli, equilibrium, mirror, nonstationary as ns
from mirrorwyner import plant, prob, solvers
from mirrorwyner.mirror import TwinAssignment, UncertaintyModel
from mirrorwyner.prob import JointPmf2, Pmf, PrivacyMapping
from mirrorwyner.solvers import ObjectiveFn, TrustRegionConfig, trust_region_solve


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance {num:02d}] {status} {name}: {detail} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_01_mi_engine_exactness():
    start = time.monotonic()
    joint = JointPmf2(0.5 * PrivacyMapping.bsc(0.1).rows)
    mi = prob.mutual_information(joint)
    closed = 1 - h2(0.1)
    brute = 0.0
    pa, pb = joint.table.sum(axis=1), joint.table.sum(axis=0)
    for a in range(2):
        for b in range(2):
            brute += joint.table[a, b] * np.log2(
                joint.table[a, b] / (pa[a] * pb[b]))
    ok = abs(mi - closed) <= 1e-9 and abs(mi - brute) <= 1e-9 \
        and round(mi, 6) == 0.531004
    violations = 0
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n_s, n_x, n_y = rng.integers(2, 5, size=3)
        j_sx = JointPmf2(rng.dirichlet(np.ones(n_s * n_x)).reshape(n_s, n_x))
        chan = PrivacyMapping(rng.dirichlet(np.ones(n_y), size=n_x))
        j3 = prob.markov_compose(j_sx, chan)
        if prob.mutual_information(j3.margin_ac()) > \
                prob.mutual_information(j_sx) + 1e-12:
            violations += 1
    ok = ok and violations == 0
    report(1, "MI engine", ok,
           f"I={mi:.9f} (closed {closed:.9f}), DPI violations {violations}/1000",
           time.monotonic() - start, 1.0)


def test_02_trust_region_fidelity():
    start = time.monotonic()

    def rosen(x):
        return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2

    def rosen_grad(x):
        return np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                         200 * (x[1] - x[0] ** 2)])

    cfg = TrustRegionConfig(max_iter=500, eps_th=1e-6)
    x, trace = trust_region_solve(ObjectiveFn(rosen, 2, grad=rosen_grad),
                                  np.array([-1.2, 1.0]), cfg)
    law_ok = True
    for prev, cur in zip(trace.iterates, trace.iterates[1:]):
        if prev.ratio <= cfg.eta1:
            law_ok &= (not prev.accepted) and \
                cur.radius <= cfg.theta1 * prev.radius + 1e-9
        elif prev.ratio <= cfg.eta2:
            law_ok &= prev.accepted and abs(cur.radius - prev.radius) <= 1e-9
        else:
            law_ok &= prev.accepted and (
                abs(cur.radius - prev.radius) <= 1e-9
                or abs(cur.radius - cfg.theta2 * prev.radius) <= 1e-9)
    rosen_ok = trace.converged and np.linalg.norm(rosen_grad(x)) < 1e-6 \
        and trace.iterations <= 500
    fq = ObjectiveFn(lambda v: float(v @ v), 3, grad=lambda v: 2 * v)
    _, tq = trust_region_solve(fq, np.array([3.0, -2.0, 1.0]),
                               TrustRegionConfig(eps_th=1e-8, delta0=8.0))
    quad_ok = tq.converged and tq.iterations <= 2
    ok = law_ok and rosen_ok and quad_ok
    report(2, "Algorithm 2", ok,
           f"radius law {law_ok}, Rosenbrock {trace.iterations} iters, "
           f"quadratic {tq.iterations} iters",
           time.monotonic() - start, 5.0)


def test_03_convergence_cdf_dominance():
    start = time.monotonic()
    inst = mirror.reference_binary_instance()
    u = UncertaintyModel(0.5, seed=0)
    relaxed, unrelaxed = [], []
    for seed in range(200):
        _, tr = solvers.greedy_solve(inst, u, relaxed=True, budget=60, seed=seed)
        relaxed.append(tr.iterations)
        _, ts = solvers.greedy_solve(inst, u, relaxed=False, budget=60, seed=seed)
        unrelaxed.append(ts.iterations)
    relaxed, unrelaxed = np.asarray(relaxed), np.asarray(unrelaxed)
    grid = np.unique(np.concatenate([relaxed, unrelaxed]))
    pointwise = all(np.mean(relaxed <= t) >= np.mean(unrelaxed <= t) - 1e-12
                    for t in grid)
    ks = stats.ks_2samp(relaxed, unrelaxed, alternative="greater")
    ok = pointwise and ks.pvalue < 0.05
    report(3, "relaxed CDF dominance", ok,
           f"pointwise dominance {pointwise}, KS stat {ks.statistic:.3f} "
           f"p {ks.pvalue:.2e}", time.monotonic() - start, 120.0)


def test_04_secrecy_gap_monotone():
    start = time.monotonic()
    runner, table = cli.SUBCOMMANDS["secrecy-gap"]
    header, rows, rc = runner(
        cli._parse(table, {"b_magnitudes": [0.6, 0.7], "grid_points": 5}), seed=0)
    by_mag = {}
    for row in rows:
        by_mag.setdefault(row[0], []).append(row[3])
    ok = rc == 0 and set(by_mag) == {0.6, 0.7}
    steps_ok = all(b >= a - 1e-6 for gaps in by_mag.values()
                   for a, b in zip(gaps, gaps[1:]))
    ok = ok and steps_ok
    report(4, "secrecy gap trend", ok,
           f"gaps 0.6: {[round(g, 4) for g in by_mag[0.6]]}, "
           f"monotone {steps_ok}", time.monotonic() - start, 120.0)


def test_05_epsilon_floor_soundness():
    start = time.monotonic()
    inst = mirror.reference_binary_instance()
    p1 = mirror.assemble_p1(inst)
    ccp_strict = mirror.chance_relax(p1, UncertaintyModel(0.0))
    ccp_floor = mirror.epsilon_floor(ccp_strict, (0.01, 0.01, 0.01))
    ticks = np.linspace(0, 1, 17)
    rows_grid = [np.array([[a, 1 - a], [b, 1 - b]]) for a in ticks for b in ticks]
    p_s = inst.source.probs
    x_given_s = inst.x_given_s(0)
    yo = np.array([x_given_s @ r for r in rows_grid])   # (n, S, 2)
    yv = yo.copy()  # same channel family for originals and twins

    def mi_pair(head, other):
        table = np.einsum("s,sh,so->ho", p_s, head, other)
        return prob.mutual_information(JointPmf2(table))

    counterexamples = 0
    checked = 0
    vals = np.zeros((2, 7))
    for i in range(len(rows_grid)):
        for j in range(len(rows_grid)):
            v5 = mi_pair(yo[i], yv[j])        # (v): other's twin vs own original
            v6 = mi_pair(x_given_s, yv[j])    # (vi): other's twin vs own source
            vals[:, 4] = v5
            vals[:, 5] = v6
            for q, c in ((0, 4), (0, 5)):
                if ccp_floor.constraint_holds(vals, q, c):
                    checked += 1
                    if not ccp_strict.constraint_holds(vals, q, c):
                        counterexamples += 1
    ok = counterexamples == 0 and checked > 0
    report(5, "relaxation soundness", ok,
           f"{checked} floored passes, {counterexamples} counterexamples "
           f"on the 1/16 grid", time.monotonic() - start, 60.0)


def test_06_equilibrium_convergence():
    start = time.monotonic()
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        w = rng.uniform(0, 1, size=(8, 8))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        game = equilibrium.KCutGame(w, 3)
        init = equilibrium.StrategyProfile(tuple(rng.integers(0, 3, size=8)))
        res = equilibrium.best_response_dynamics(game, init)
        is_nash, _ = equilibrium.verify_nash(game, res.profile)
        if not (res.converged and is_nash):
            failures += 1
    report(6, "equilibrium", failures == 0,
           f"{100 - failures}/100 games converged to verified Nash",
           time.monotonic() - start, 30.0)


def test_07_mfg_heat_kernel():
    start = time.monotonic()
    n_x, n_t, sigma, s0 = 201, 400, 0.1, 0.5
    dt = 1.0 / n_t
    xs = np.linspace(-3, 3, n_x)
    dens = np.exp(-xs ** 2 / (2 * s0 ** 2))
    dens /= dens.sum() * (xs[1] - xs[0])
    grid = ns.MfgGrid(x_min=-3, x_max=3, n_x=n_x, n_t=n_t, dt=dt, sigma=sigma,
                      initial_density=dens)
    sol = ns.mfg_solve(grid, damping=1.0)
    t_final = (n_t - 1) * dt
    var = s0 ** 2 + 2 * sigma ** 2 * t_final
    ref = np.exp(-xs ** 2 / (2 * var))
    ref /= ref.sum() * grid.dx
    l1 = float(np.sum(np.abs(sol.density[-1] - ref)) * grid.dx)
    mass_err = float(np.max(np.abs(sol.density.sum(axis=1) * grid.dx - 1.0)))
    ok = sol.converged and l1 <= 1e-3 and mass_err <= 1e-6 \
        and sol.residuals[-1] < 1e-5
    report(7, "MFG heat kernel", ok,
           f"L1 {l1:.2e}, mass err {mass_err:.2e}, "
           f"residual {sol.residuals[-1]:.2e}", time.monotonic() - start, 60.0)


def test_08_lohe_oracle_and_sync():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    q, d = 3, 2
    states = rng.normal(size=(q, d)) + 1j * rng.normal(size=(q, d))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    h = rng.normal(size=(q, d, d))
    hams = (h + h.transpose(0, 2, 1)) / 2
    sys0 = ns.LoheSystem(states=states, hamiltonians=hams, alpha=0.0)
    traj = ns.lohe_integrate(sys0, 1e-3, 1000)
    err = max(float(np.max(np.abs(
        traj[-1, i] - expm(-1j * hams[i]) @ states[i]))) for i in range(q))
    norm_err = float(np.max(np.abs(np.linalg.norm(traj, axis=2) - 1.0)))
    # two oscillators sharing one Hamiltonian, coupled
    hams2 = np.broadcast_to(hams[0], (2, d, d)).copy()
    sys2 = ns.LoheSystem(states=states[:2], hamiltonians=hams2, alpha=1.5)
    traj2 = ns.lohe_integrate(sys2, 1e-2, 2000)
    sync = ns.sync_order(traj2[-1])
    ok = err <= 1e-6 and norm_err <= 1e-8 and sync > 0.99
    report(8, "Lohe", ok,
           f"expm err {err:.2e}, norm err {norm_err:.2e}, sync {sync:.4f}",
           time.monotonic() - start, 30.0)


def test_09_plant_rank_oracle():
    start = time.monotonic()

    def companion(coeffs):
        n = len(coeffs)
        mat = np.zeros((n, n))
        mat[1:, :-1] = np.eye(n - 1)
        mat[:, -1] = -np.asarray(coeffs)
        return mat

    agree = 0
    duality_ok = True
    rng = np.random.default_rng(0)
    for trial in range(500):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(0, n + 1))
        a = np.zeros((n, n))
        b = np.zeros((n, 1))
        if r > 0:
            a[:r, :r] = companion(rng.uniform(-0.5, 0.5, size=r))
            b[r - 1, 0] = 1.0
        if r < n:
            a[r:, r:] = rng.normal(size=(n - r, n - r))
        qmat, _ = np.linalg.qr(rng.normal(size=(n, n)))
        a, b = qmat @ a @ qmat.T, qmat @ b
        rank, _ = plant.controllability_rank(a, b)
        agree += rank == r
        duality_ok &= plant.observability_rank(a.T, b.T) == (rank, rank == n)
    ok = agree == 500 and duality_ok
    report(9, "plant ranks", ok,
           f"{agree}/500 oracle agreements, duality {duality_ok}",
           time.monotonic() - start, 30.0)


def test_10_stackelberg_brute_force():
    start = time.monotonic()
    agree = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        laws = tuple(rng.dirichlet(np.ones(20), size=20) for _ in range(20))
        payoffs = rng.normal(size=(20, 20))
        inst = ns.StackelbergInstance(leader_laws=laws, payoffs=payoffs)
        li, act, val = ns.stackelberg_solve(inst)
        best = None
        for k, law in enumerate(laws):
            exp = [float(law[a] @ payoffs[a]) for a in range(20)]
            a_star = int(np.argmax(exp))
            if best is None or exp[a_star] > best[2]:
                best = (k, a_star, exp[a_star])
        agree += (li, act) == best[:2] and abs(val - best[2]) <= 1e-12
    report(10, "Stackelberg", agree == 100,
           f"{agree}/100 brute-force agreements",
           time.monotonic() - start, 10.0)


def test_11_cli_determinism(tmp_path):
    start = time.monotonic()
    small = {
        "convergence-cdf": {"n_seeds": 4, "budget": 10},
        "mi-tradeoff": {"grid_points": 3, "n_samples": 16},
        "mfg": {"grid": None},  # replaced below with a small grid
    }
    xs = np.linspace(-3, 3, 41)
    dens = np.exp(-xs ** 2 / 0.5)
    dens /= dens.sum() * (xs[1] - xs[0])
    small["mfg"]["grid"] = {"x_min": -3.0, "x_max": 3.0, "n_x": 41, "n_t": 20,
                            "dt": 0.01, "sigma": 0.1,
                            "initial_density": list(dens)}
    mismatches = []
    for cmd in cli.SUBCOMMANDS:
        args = [cmd, "--seed", "1"]
        if cmd in small:
            cfg = tmp_path / f"{cmd}.json"
            cfg.write_text(json.dumps(small[cmd]))
            args += ["--config", str(cfg)]
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}_{tag}.csv"
            rc = cli.main(args + ["--out", str(out)])
            assert rc == 0, f"{cmd} exited {rc}"
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatches.append(cmd)
    report(11, "CLI determinism", not mismatches,
           f"{len(cli.SUBCOMMANDS)} subcommands byte-identical"
           + (f", mismatches: {mismatches}" if mismatches else ""),
           time.monotonic() - start, 120.0)
