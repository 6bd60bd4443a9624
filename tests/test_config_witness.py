"""Every config key can change a run. A witness for a key is a base config
and a second valid value of that key: both runs exit 0 or 1, and their CSV
bytes or exit codes differ. Each key of each subcommand's table has one, and
so has each `instance` or `grid` key of the subcommands that read those
objects, unless EXEMPT names the key with its reason. A key with neither
fails, so a key that changes no output cannot come in unnoticed."""

import copy
import json

import numpy as np
import pytest

from mirrorwyner import cli, mirror
from mirrorwyner.cli import main

REF = mirror.reference_binary_instance().to_jsonable()
NESTED = {"instance": cli.INSTANCE_KEYS, "grid": cli.GRID_KEYS}


def config_keys():
    """'<subcommand> <key>' for every key of every subcommand's table, and
    '<subcommand> <object>.<key>' for the keys of the objects it reads."""
    for cmd, (_, table) in cli.SUBCOMMANDS.items():
        yield from (f"{cmd} {key}" for key in table)
        for outer, keys in NESTED.items():
            if outer in table:
                yield from (f"{cmd} {outer}.{key}" for key in keys)


def _mfg_grid(**kw):
    """A small grid whose value field moves, so the drift and the control
    terms are live; its density integrates to 1 on its 21 points. A key
    given as None is left out."""
    xs = np.linspace(-3.0, 3.0, 21)
    dens = np.exp(-xs ** 2 / 2)
    grid = {"x_min": -3.0, "x_max": 3.0, "n_x": 21, "n_t": 6, "dt": 0.01, "sigma": 0.5,
            "initial_density": list(dens / (dens.sum() * 0.3)),
            "mu_weight": [1.0] * 6, "terminal_value": list(xs / 3)}
    grid.update(kw)
    return {k: v for k, v in grid.items() if v is not None}


_INERT = "no computation reads it; bench/workloads.py writes it"
EXEMPT = {
    "convergence-cdf b_magnitude": _INERT,
    **{f"{cmd} instance.theta_levels": _INERT
       for cmd in ("mi-tradeoff", "secrecy-gap", "convergence-cdf")},
    **{f"{cmd} instance.virtual_alphabet": "fixed by the length of the symbol_values "
       "rows; bench/workloads.py writes it"
       for cmd in ("mi-tradeoff", "secrecy-gap", "convergence-cdf")},
    **{f"mi-tradeoff instance.{key}": "mi-tradeoff reads only the joints"
       for key in ("gamma0", "gamma1", "gamma2", "gamma3", "symbol_values")},
    **{f"secrecy-gap instance.{key}": "secrecy-gap reads only the joints, gamma0 and "
       "symbol_values" for key in ("gamma1", "gamma2", "gamma3")},
    "mfg grid.n_x": "fixed by the length of initial_density; bench/workloads.py writes it",
}

_SMALL_CDF = {"n_seeds": 3, "budget": 8}
_SMALL_SWEEP = {"resolution": 2, "n_samples": 8, "grid_points": 7}
_LAWS = [[[0.5, 0.5], [0.9, 0.1]], [[0.2, 0.8], [0.6, 0.4]]]
_PLANT = {"a1": [[0.5, 0.1], [0.0, 0.3]], "a2": [[1.0], [0.0]], "a3": [[1.0, 1.0]],
          "a4": [[0.2]]}
_JOINTS = [[[0.5, 0.1], [0.1, 0.3]]] * 2   # a skewed X, unlike the reference
_SWEEP_REF = dict(_SMALL_SWEEP, instance=REF)   # bases of the instance keys
_CDF_REF = dict(_SMALL_CDF, instance=REF)


# key -> (base config, second value)
WITNESSES = {
    "mi-tradeoff instance": (_SMALL_SWEEP, dict(REF, joints=_JOINTS)),
    "mi-tradeoff b_magnitudes": (_SMALL_SWEEP, [0.1]),
    "mi-tradeoff n_samples": (dict(_SMALL_SWEEP, resolution=8), 64),
    "mi-tradeoff grid_points": (_SMALL_SWEEP, 4),
    "mi-tradeoff resolution": (_SMALL_SWEEP, 3),
    "mi-tradeoff theta": (_SMALL_SWEEP, 0.5),
    "mi-tradeoff instance.joints": (_SWEEP_REF, _JOINTS),
    "secrecy-gap instance": (_SMALL_SWEEP, dict(REF, joints=_JOINTS)),
    "secrecy-gap b_magnitudes": (_SMALL_SWEEP, [0.6]),
    "secrecy-gap n_samples": (_SMALL_SWEEP, 64),
    "secrecy-gap grid_points": (_SMALL_SWEEP, 4),
    "secrecy-gap resolution": (_SMALL_SWEEP, 3),
    "secrecy-gap instance.joints": (_SWEEP_REF, _JOINTS),
    "secrecy-gap instance.gamma0": (_SWEEP_REF, [0.01, 0.01]),
    "secrecy-gap instance.symbol_values": (_SWEEP_REF,
                                           [[0.0, 2.0], [0.0, 2.0]]),
    "convergence-cdf instance": (_SMALL_CDF, dict(REF, joints=_JOINTS)),
    "convergence-cdf n_seeds": (_SMALL_CDF, 4),
    "convergence-cdf budget": (_SMALL_CDF, 2),
    "convergence-cdf seeds": (_SMALL_CDF, [5, 6, 7]),
    "convergence-cdf eps": (_SMALL_CDF, [0.1, 0.1, 0.1]),
    "convergence-cdf mode": (_SMALL_CDF, "three"),
    "convergence-cdf instance.joints": (_CDF_REF, _JOINTS),
    "convergence-cdf instance.gamma0": (_CDF_REF, [0.01, 0.01]),
    "convergence-cdf instance.gamma1": (_CDF_REF, [0.01, 0.01]),
    "convergence-cdf instance.gamma2": (_CDF_REF, 0.5),
    "convergence-cdf instance.gamma3": (_CDF_REF, 0.01),
    "convergence-cdf instance.symbol_values": (_CDF_REF,
                                               [[0.0, 5.0], [0.0, 5.0]]),
    "mfg grid": ({}, _mfg_grid()),
    "mfg tol": ({"grid": _mfg_grid()}, 0.1),
    "mfg max_sweeps": ({"grid": _mfg_grid()}, 2),
    "mfg damping": ({"grid": _mfg_grid()}, 0.9),
    # a shift of 1e-6 moves the density's mass by less than its 1e-6 tolerance
    "mfg grid.x_min": ({"grid": _mfg_grid()}, -3.000001),
    "mfg grid.x_max": ({"grid": _mfg_grid()}, 3.000001),
    "mfg grid.n_t": ({"grid": _mfg_grid(mu_weight=None)}, 7),
    "mfg grid.dt": ({"grid": _mfg_grid()}, 0.02),
    "mfg grid.sigma": ({"grid": _mfg_grid()}, 0.1),
    "mfg grid.initial_density": ({"grid": _mfg_grid()}, [1 / 6.3] * 21),
    "mfg grid.mu_weight": ({"grid": _mfg_grid()}, [-1.0] * 6),
    "mfg grid.terminal_value": ({"grid": _mfg_grid()}, [0.0] * 21),
    "mfg grid.running_cost": ({"grid": _mfg_grid()}, [1.0] * 21),
    "mfg grid.p_bar": ({"grid": _mfg_grid()}, 1.0),
    "mfg grid.control_max": ({"grid": _mfg_grid()}, 2.0),
    "lohe q": ({"steps": 20}, 3),
    "lohe d": ({"steps": 20}, 3),
    "lohe coupling": ({"steps": 20}, "printed"),
    "lohe common_hamiltonian": ({"steps": 20}, False),
    "lohe hbar": ({"steps": 20}, 2.0),
    "lohe alpha": ({"steps": 20}, 0.5),
    "lohe dt": ({"steps": 20}, 0.02),
    "lohe steps": ({"steps": 20}, 30),
    "lohe stride": ({"steps": 20}, 5),
    "stackelberg laws": ({"laws": _LAWS, "payoffs": [[1.0, 0.0], [0.0, 1.0]]},
                         [[[0.1, 0.9], [0.9, 0.1]]]),
    "stackelberg payoffs": ({"laws": _LAWS, "payoffs": [[1.0, 0.0], [0.0, 1.0]]},
                            [[0.0, 1.0], [1.0, 0.0]]),
    "stackelberg drift": ({"stages": [0, 3]}, np.full((6, 4), 0.5).tolist()),
    "stackelberg n_follower": ({}, 5),
    "stackelberg n_leader_state": ({}, 3),
    "stackelberg n_laws": ({}, 7),
    "stackelberg stages": ({}, [0, 1]),
    "nash weights": ({"k": 3}, (np.ones((8, 8)) - np.eye(8)).tolist()),
    "nash n": ({}, 9),
    "nash k": ({"payoff_mode": "cut"}, 4),
    "nash payoff_mode": ({}, "cut"),
    "nash init": ({}, [1, 0, 1, 0, 1, 0, 1, 0]),
    "plant a1": (_PLANT, [[0.9, 0.1], [0.0, 0.3]]),
    "plant a2": (_PLANT, [[0.0], [1.0]]),
    "plant a3": (_PLANT, [[0.0, 1.0]]),
    "plant a4": (_PLANT, [[0.7]]),
    "plant n": ({}, 5),
    "divergence joint": ({}, (np.ones((2, 3, 4, 2)) / 48).tolist()),
    # either index list alone fixes the other as its complement
    "divergence accessible": ({}, [0, 1]),
    "divergence inaccessible": ({}, [0]),
    "divergence g1": ({}, 1.0),
    "divergence g2": ({}, 0.5),
}


def _run(tmp_path, name, cmd, cfg):
    path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
    path.write_text(json.dumps(cfg))
    code = main([cmd, "--config", str(path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def test_every_key_has_a_witness_or_an_exemption():
    keys = set(config_keys())
    assert not set(WITNESSES) & set(EXEMPT)
    assert sorted(keys - set(WITNESSES) - set(EXEMPT)) == [], "keys with no witness"
    assert sorted((set(WITNESSES) | set(EXEMPT)) - keys) == [], "entries of no key"


@pytest.mark.parametrize("key", sorted(WITNESSES))
def test_witness_changes_the_run(tmp_path, key):
    cmd, path = key.split()
    base, value = WITNESSES[key]
    alt = copy.deepcopy(base)
    outer, _, inner = path.rpartition(".")
    (alt[outer] if outer else alt)[inner] = value
    runs = [_run(tmp_path, name, cmd, cfg) for name, cfg in (("base", base), ("alt", alt))]
    assert {code for code, _ in runs} <= {0, 1}, runs
    assert runs[0] != runs[1]
