"""Byte identity of the CLI's CSV output: the sha256 of each subcommand's
default CSV at `--seed 0`, of `mfg --repetitions 2`, and of configs whose
tables and paths the defaults do not reach. A change that moves any of them changes
what a run writes, and must say why. And each arithmetic failure that a
config can reach: its exit 4, its one stderr line and the CSV it does not
write."""

import ast
import hashlib
import json
import os

import numpy as np
import pytest

from mirrorwyner import cli
from mirrorwyner.cli import main

from conftest import bench_module

GOLDEN = {
    ("mi-tradeoff",): "21298267674eb9d4878a161c4e6f45fdd55abb6eec4be9fac54a0d5be5cb84a5",
    ("secrecy-gap",): "36e0b6302834b05553264f05d06548845892e7d0192bce8ecdb72d70f19f8f2d",
    ("convergence-cdf",): "76c5397d6f7379e1f6afc01de004ad8725e08eaf11dadece53f60e95a3ac0375",
    ("mfg",): "a6f062a64e1089679062c5cc1c98a9402827481e5d05ef1c7d3684717ba3af9a",
    ("mfg", "--repetitions", "2"):
        "98fd1d303b8ad43f1003f8eecb66f25a21b4388604e1187911ef360b2aebe5a1",
    ("lohe",): "2648af51e60ba8b084e7e01d5e8d4bc5cb0c144a339e4f00a80abf2c5c469b53",
    ("stackelberg",): "2c9ed5fcb7068ca03044c647b97495d2c29b2f572e629a147f17d98e2afdb9c3",
    ("nash",): "2da68b160967fda97b2e4677de336cd1051538cba5f72ea68540af8a749b1708",
    ("plant",): "b6029e6b1fbd885367135be49f7e60ed8050e2c56158efa9553108b81dc56dfa",
    ("divergence",): "c82ea60984f4c2d20d233196acaf06cbcf2d5ca5746081949b720151008aa136",
}


def test_every_subcommand_has_a_golden_csv():
    assert {argv[0] for argv in GOLDEN} == set(cli.SUBCOMMANDS)


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_default_csv_bytes(tmp_path, argv):
    out = tmp_path / "o.csv"
    main([*argv, "--seed", "0", "--out", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# (subcommand, config, seed) -> sha256 of its CSV; a config is a JSON object
# or the name of a file under configs/
GOLDEN_CONFIGS = {
    # mixed row types, padded cdf rows and the completed_tight row
    ("convergence-cdf", '{"n_seeds": 5, "budget": 10, "mode": "three"}', 0):
        "70dffef445c80fed5d6ed2c52930fb9e17f7645fd1082b56f7fab7e975aac2ad",
    ("convergence-cdf", "convergence_small.json", 0):
        "7d7ececa042a41c4fe8b5ff2dcbc9a9fa6bcd37b88687a45091f45c674efc3d2",
    ("nash", '{"payoff_mode": "cut"}', 0):
        "ee2365c8ab641a82259fb63f7ef5a1702dcba06a6af827fbd08794f88d502a20",
    ("lohe", '{"coupling": "printed"}', 0):
        "84eba1b7f82ea7cc3454be3f5873f192695621513c39f4ddca91197c0f1f7573",
    ("mi-tradeoff", '{"resolution": 0, "b_magnitudes": [0, 1]}', 3):
        "0b84236d78c20e28ddde632d5442f18c8ce86083ea5712bd9a13bc8d1d0c88d4",
    # an infeasible band: no cmi_max or weight rows
    ("divergence", '{"g1": 5.0, "g2": 6.0}', 0):
        "0217229c3474ea6f5baabaefce1b9887fd2542194e62cf44dffe61b7048470ff",
    # a drawn 20-law grid of 9x9 tables under a drift, three stages
    ("stackelberg", json.dumps({
        "n_laws": 20, "n_follower": 9, "n_leader_state": 9, "stages": [0, 1, 4],
        "drift": [[round(0.01 * ((2 * i + 3 * j) % 7 - 3), 2) for j in range(9)]
                  for i in range(9)]}), 0):
        "419e3f4bc612e112c6fbd49a8e004cd3dc4c27958d002b8b21bb53bafe48ae2e",
    # asymmetric weights in {0, 1, 2}, so colour switches tie
    ("nash", json.dumps({
        "weights": [[0 if i == j else (i + 2 * j) % 3 for j in range(7)] for i in range(7)],
        "k": 3, "payoff_mode": "cut"}), 0):
        "7767a716ee5315595f68f54d606532052411442e978e5c4039860b27c492193b",
    # a joint in 64ths whose slice 2 has no mass, inaccessible with slice 3
    ("divergence", json.dumps({
        "joint": [[[[0.0 if z == 2 else
                     (1 + (x + 2 * y * z + 3 * m + z) % 3 + 4 * (x == y == z == m == 0)) / 64
                     for m in range(2)] for z in range(4)] for y in range(3)] for x in range(2)],
        "accessible": [0, 1], "inaccessible": [2, 3]}), 0):
        "5c5ef06a7689c2884ebfd7eee0bdd90066187595d73fbec08e00fcf1473d9a64",
    # the Q=4 benchmark instance: blocked exposure stacks, resolved by the
    # greedy walk; its run rows read 15, 16, 19 and 20 passes, one converged
    ("convergence-cdf", json.dumps({
        "instance": bench_module("workloads").wide_instance(np.random.default_rng(0)),
        "n_seeds": 4, "budget": 20}), 0):
        "dd471db74e03be1f83d0ab376acd546dec1c40ec54130db08c7853a999567146",
    # seeds given out of order rather than derived from --seed: the run rows
    # sort them
    ("convergence-cdf", '{"seeds": [7, 3, 11], "budget": 10}', 0):
        "f43352d0d9ddeb3e36a6ee24a999014d34328f0af9093397481c4ff0d3b85ffe",
    # a coupled field: mu_weight, terminal_value and running_cost set, so the
    # drift is nonzero and differs between the guess and the solved value
    ("mfg", json.dumps({"grid": {
        "x_min": -2.0, "x_max": 2.0, "n_x": 41, "n_t": 40, "dt": 0.01, "sigma": 0.2,
        "initial_density": [(21 - abs(i - 20)) / 44.1 for i in range(41)],
        "mu_weight": [1 + k % 3 for k in range(40)],
        "terminal_value": [-((i - 20) / 10) ** 2 for i in range(41)],
        "running_cost": [abs(i - 20) / 20 for i in range(41)], "p_bar": 0.25}}), 0):
        "f153691008d5a0413ba1591d3c3fe5aab0eee1d04eb6880fbba2337a5b20c0b8",
}


def config_argv(directory, case, name="c"):
    """The CLI arguments of a GOLDEN_CONFIGS case, `--out` aside. A JSON
    object config is written to `directory`/`name`.json; a file name is
    found under configs/."""
    sub, cfg, seed = case
    if cfg.startswith("{"):
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(cfg)
    else:
        path = os.path.join(CONFIGS, cfg)
    return [sub, "--config", str(path), "--seed", str(seed)]


@pytest.mark.parametrize("case", list(GOLDEN_CONFIGS), ids=lambda c: f"{c[0]} {c[1]} {c[2]}")
def test_config_csv_bytes(tmp_path, case):
    out = tmp_path / "o.csv"
    assert main([*config_argv(tmp_path, case), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CONFIGS[case]


# Each raise of an error that exits 4 under src/mirrorwyner, named
# "module.function: " and the literal head of its message, -> a
# (subcommand, config) that reaches it at --seed 0 and the message that its
# one stderr line reports. A run that fails writes no CSV.
GOLDEN_FAILURES = {
    "nonstationary.lohe_integrate: non-finite state at step":
        ("lohe", {"dt": 1e6}, "non-finite state at step 3"),
    "nonstationary.mfg_solve: mfg_solve: the value field overflowed to NaN":
        ("mfg", {"grid": {"x_min": -1.0, "x_max": 1.0, "n_x": 5, "n_t": 3, "dt": 0.01,
                          "sigma": 0.1, "initial_density": [0.4] * 5,
                          "terminal_value": [1e308, -1e308, 1e308, -1e308, 0.0]}},
         "mfg_solve: the value field overflowed to NaN"),
    "plant._svd_rank: rank test: the Krylov matrix overflowed":
        ("plant", {"a1": [[1e300, 0.0], [0.0, 1e300]], "a2": [[1e300], [1e300]],
                   "a3": [[1.0, 1.0]], "a4": [[1.0]]},
         "rank test: the Krylov matrix overflowed"),
    "plant.closed_loop_spectral_radius: closed_loop_spectral_radius: the closed-loop "
    "matrix overflowed":
        ("plant", {"a1": [[0.5]], "a2": [[1e308]], "a3": [[1e308]], "a4": [[1.0]]},
         "closed_loop_spectral_radius: the closed-loop matrix overflowed"),
    "nonstationary.StackelbergInstance.staged_laws: staged_laws: a drifted law row sums "
    "to inf at stage":
        ("stackelberg", {"laws": [[[0.5, 0.5]] * 2] * 2, "payoffs": [[1.0, 2.0], [3.0, 4.0]],
                         "drift": [[1e308, 1e308]] * 2, "stages": [0, 2]},
         "staged_laws: a drifted law row sums to inf at stage 2"),
    "nonstationary.stackelberg_solve: stackelberg_solve: an expected payoff overflows "
    "at stage":
        ("stackelberg", {"laws": [[[0.5000000004, 0.5000000004]]],
                         "payoffs": [[1.7976931348623157e308] * 2]},
         "stackelberg_solve: an expected payoff overflows at stage 0"),
}

# The raise sites that no config reaches, with the reason.
_ACCEPTANCE_ONLY = "; no subcommand runs the trust-region solver, only the acceptance suite"
FAILURE_EXEMPT = {
    "solvers.trust_region_solve: non-finite objective or gradient": "a solver input"
    + _ACCEPTANCE_ONLY,
    "solvers.trust_region_solve: trust-region radius collapsed": "a solver state"
    + _ACCEPTANCE_ONLY,
    "nonstationary._forward_density: density mass vanished": "the flux form moves mass "
    "between cells and clipping only adds, so from the grid's checked initial density of "
    "mass 1 the mass stays near 1; 3,000 drawn grids with values from 1e-300 to 1e307 "
    "never raised it",
    "nonstationary.mean_value_reduce: mean_value_reduce: integral of mu is zero": "its "
    "one caller, `_drift`, returns a zero drift first when that same integral is zero",
}
EXIT_4_ERRORS = ("NumericError", "DegenerateIntegralError")


def exit_4_raise_sites():
    """The "module.function: message head" of each `raise` of an
    EXIT_4_ERRORS class under src/mirrorwyner, the head being the message's
    text up to its first formatted value."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mirrorwyner")
    sites = []

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, f"{prefix}{child.name}.")
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) in EXIT_4_ERRORS):
                message = child.exc.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                sites.append(f"{module}.{prefix[:-1]}: {parts[0].value.strip()}")
            visit(child, module, prefix)

    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                visit(ast.parse(fh.read()), name[:-3], "")
    return sites


def test_every_exit_4_site_has_a_golden_failure_or_a_reason():
    sites = exit_4_raise_sites()
    assert len(sites) == len(set(sites)), "two raise sites share a name"
    assert not set(GOLDEN_FAILURES) & set(FAILURE_EXEMPT)
    assert sorted(sites) == sorted([*GOLDEN_FAILURES, *FAILURE_EXEMPT])


# numpy warns on the way to each overflow; the report stands alone
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("site", list(GOLDEN_FAILURES))
def test_golden_failure(tmp_path, capsys, site):
    sub, config, message = GOLDEN_FAILURES[site]
    assert message.startswith(site.split(": ", 1)[1])   # the site raises this message
    path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    path.write_text(json.dumps(config))
    assert main([sub, "--config", str(path), "--seed", "0", "--out", str(out)]) == 4
    assert capsys.readouterr().err == json.dumps(
        {"error": "NumericError", "field": sub, "message": message}) + "\n"
    assert not out.exists()
