"""Workload definitions: every input the program reads is generated here from
the workload seed, and the batch size is fixed from the requested seconds
through a nominal per-op cost, never from a measured speed. A faster program
therefore finishes the same batch sooner.

Each workload is a list of rounds; a round is a list of `cli.main` calls.
For the solver workloads an op is one `solvers.greedy_solve` inside the
calls; for the others an op is one whole round.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Nominal seconds per op on the reference machine (2-vCPU virtual machine,
# see README.md). They only size the batch; the run reports what it measured.
NOMINAL_OP_S = {
    "cdf_reference": 0.21,
    "cdf_wide": 1.3,
    "tradeoff_sweep": 2.3,
    "field_dynamics": 0.45,
}

CDF_BUDGET = 60
WIDE_BUDGET = 2
WIDE_SHAPE = dict(q_count=4, n_s=3, n_x=5, n_v=5)
TRADEOFF_RESOLUTION = 10
GAP_RESOLUTION = 16
N_SAMPLES = 64
MFG = dict(n_x=101, n_t=100, dt=0.01, sigma=0.1, s0=0.5, x_min=-3.0, x_max=3.0)


@dataclass
class Call:
    """One `cli.main` invocation: the subcommand, its generated config, the
    `--seed` it runs with, and where the config and the CSV output go."""

    subcommand: str
    config: dict
    seed: int = 0
    path: str = ""
    out: str = ""

    def argv(self):
        return [self.subcommand, "--config", self.path, "--seed", str(self.seed),
                "--out", self.out]


@dataclass
class Plan:
    op_kind: str                      # "solve" or "round"
    rounds: list = field(default_factory=list)

    @property
    def calls(self):
        return [c for r in self.rounds for c in r]

    def write_configs(self, directory):
        os.makedirs(directory, exist_ok=True)
        for i, call in enumerate(self.calls):
            call.path = os.path.join(directory, f"{i:04d}-{call.subcommand}.json")
            call.out = os.path.join(directory, f"{i:04d}-{call.subcommand}.csv")
            with open(call.path, "w") as fh:
                json.dump(call.config, fh)


def n_ops(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / NOMINAL_OP_S[workload])))


def _greedy_seeds(rng, n):
    return [int(s) for s in rng.choice(2**31 - 1, size=n, replace=False)]


def wide_instance(rng) -> dict:
    """Seeded Q=4 instance with |S|=3 and |X|=|Yo|=|Yv|=5, in the JSON form
    of `MirrorGameInstance.to_jsonable`. All Bobs share one S marginal."""
    q, n_s, n_x, n_v = (WIDE_SHAPE[k] for k in ("q_count", "n_s", "n_x", "n_v"))
    p_s = rng.dirichlet(np.full(n_s, 4.0))
    joints = []
    for _ in range(q):
        x_given_s = rng.dirichlet(np.ones(n_x), size=n_s)
        joints.append((p_s[:, None] * x_given_s).tolist())
    return {
        "joints": joints,
        "gamma0": [0.3] * q,
        "gamma1": [4.0] * q,
        "gamma2": 0.1,
        "gamma3": 1.5,
        "theta_levels": [0.9] * 7,
        "symbol_values": [list(map(float, range(n_v)))] * q,
        "virtual_alphabet": n_v,
    }


def _cdf_plan(workload, seed, seconds):
    rng = np.random.default_rng(seed)
    n_seeds = max(1, int(round(n_ops(workload, seconds) / 2)))
    cfg = {"n_seeds": n_seeds, "seeds": _greedy_seeds(rng, n_seeds),
           "b_magnitude": 0.5, "mode": "two"}
    if workload == "cdf_wide":
        cfg["instance"] = wide_instance(rng)
        cfg["budget"] = WIDE_BUDGET
    else:
        cfg["budget"] = CDF_BUDGET
    return Plan("solve", [[Call("convergence-cdf", cfg)]])


def _tradeoff_plan(seed, seconds):
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(n_ops("tradeoff_sweep", seconds)):
        mags = sorted(float(m) for m in np.round(rng.uniform(0.05, 0.95, size=2), 3))
        gap_mags = sorted(float(m) for m in np.round(rng.uniform(0.3, 0.9, size=2), 3))
        cli_seed = int(rng.integers(0, 2**31 - 1))
        rounds.append([
            Call("mi-tradeoff", {"b_magnitudes": mags, "grid_points": 6,
                                 "resolution": TRADEOFF_RESOLUTION,
                                 "theta": 0.9, "n_samples": N_SAMPLES}, cli_seed),
            Call("secrecy-gap", {"b_magnitudes": gap_mags, "grid_points": 5,
                                 "resolution": GAP_RESOLUTION,
                                 "n_samples": N_SAMPLES}, cli_seed),
        ])
    return Plan("round", rounds)


def mfg_config() -> dict:
    """The heat-equation field at the Gaussian config: zero drift weight, so
    the density follows the heat kernel with variance s0^2 + 2 sigma^2 t."""
    g = MFG
    xs = np.linspace(g["x_min"], g["x_max"], g["n_x"])
    dens = np.exp(-xs**2 / (2 * g["s0"]**2))
    dens /= dens.sum() * (xs[1] - xs[0])
    grid = {k: g[k] for k in ("x_min", "x_max", "n_x", "n_t", "dt", "sigma")}
    grid["initial_density"] = dens.tolist()
    return {"grid": grid, "damping": 0.5, "tol": 1e-6, "max_sweeps": 50}


def plant_config(rng) -> dict:
    """Block upper-triangular plant split at k: for k < n the input reaches
    only the first k states and the output sees none of them, so both ranks
    are deficient by structure (exact zeros), not by a tolerance."""
    n = 4
    k = int(rng.integers(1, n + 1))
    a1 = rng.normal(size=(n, n)) / np.sqrt(n)
    a1[k:, :k] = 0.0
    a2 = np.zeros((n, 1))
    a2[:k, 0] = rng.normal(size=k)
    a3 = rng.normal(size=(1, n))
    if k < n:
        a3[0, :k] = 0.0
    a4 = rng.normal(size=(1, 1)) * 0.5
    return {"a1": a1.tolist(), "a2": a2.tolist(), "a3": a3.tolist(), "a4": a4.tolist()}


def stackelberg_config(rng) -> dict:
    n_f, n_u, n_laws = 6, 4, 8
    return {
        "laws": [rng.dirichlet(np.ones(n_u), size=n_f).tolist() for _ in range(n_laws)],
        "payoffs": rng.normal(size=(n_f, n_u)).tolist(),
        "drift": (0.05 * rng.normal(size=(n_f, n_u))).tolist(),
        "stages": [0, 1, 2],
    }


def nash_config(rng) -> dict:
    """Symmetric weights and a random start: a start with every player on
    one colour is already an equilibrium of the same-colour game, so the
    dynamics would make no move."""
    n, k = 8, 3
    w = rng.uniform(0, 1, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return {"weights": w.tolist(), "k": k,
            "init": [int(c) for c in rng.integers(0, k, size=n)]}


def divergence_config(rng) -> dict:
    joint = rng.dirichlet(np.ones(2 * 3 * 4 * 2)).reshape(2, 3, 4, 2)
    return {"joint": joint.tolist(), "accessible": [0, 1, 2], "inaccessible": [3],
            "g1": 0.0, "g2": 1.0}


def _field_plan(seed, seconds):
    rng = np.random.default_rng(seed)
    mfg = mfg_config()
    rounds = []
    for _ in range(n_ops("field_dynamics", seconds)):
        lohe_seed = int(rng.integers(0, 2**31 - 1))
        rounds.append([
            Call("mfg", mfg),
            Call("lohe", {"q": 4, "d": 2, "dt": 0.01, "steps": 500, "stride": 10,
                          "alpha": 1.0}, lohe_seed),
            Call("divergence", divergence_config(rng)),
            Call("nash", nash_config(rng)),
            Call("plant", plant_config(rng)),
            Call("stackelberg", stackelberg_config(rng)),
        ])
    return Plan("round", rounds)


def make_plan(workload: str, seed: int, seconds: float) -> Plan:
    if workload in ("cdf_reference", "cdf_wide"):
        return _cdf_plan(workload, seed, seconds)
    if workload == "tradeoff_sweep":
        return _tradeoff_plan(seed, seconds)
    if workload == "field_dynamics":
        return _field_plan(seed, seconds)
    raise ValueError(f"unknown workload {workload!r}")
