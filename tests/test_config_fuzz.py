"""The config contract under fuzzed configs: every subcommand, given any JSON
object, exits 0, 1, 3 or 4 without a traceback, and an exit of 3 or 4
writes exactly one JSON report on stderr and no CSV. (Exit 1, a failed
output assertion, writes its CSV and no report.)"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mirrorwyner import cli, mirror

# The work of a run grows with these keys, so a fuzzed number for one stays
# at or below its cap, and `SMALL` stands in for the defaults that would
# make a run slow.
SIZE_CAPS = {"n_seeds": 3, "budget": 4, "n_samples": 4, "grid_points": 4, "resolution": 3,
             "max_sweeps": 5, "q": 4, "d": 3, "steps": 30, "stride": 5, "n_follower": 4,
             "n_leader_state": 4, "n_laws": 4, "n": 5, "k": 4, "n_x": 21, "n_t": 8,
             "virtual_alphabet": 4}
# Size keys whose runs refuse a value past the cell cap before allocating, so
# a fuzzed value may be that large: it exits 3 rather than with a MemoryError.
OVER_CAP = {"n_t": (10 ** 15,)}
SMALL = {"convergence-cdf": {"n_seeds": 2, "budget": 3},
         "mi-tradeoff": {"n_samples": 4, "resolution": 2},
         "secrecy-gap": {"n_samples": 4, "resolution": 2},
         "lohe": {"steps": 30}}


def _grid():
    xs = np.linspace(-3.0, 3.0, 11)
    dens = np.exp(-xs ** 2 / 0.5)
    return {"x_min": -3.0, "x_max": 3.0, "n_x": 11, "n_t": 5, "dt": 0.01, "sigma": 0.1,
            "initial_density": list(dens / (dens.sum() * 0.6))}


# Valid configs that fuzzing starts from, so that a mutation reaches past
# the first check of a run.
BASES = {
    "convergence-cdf": {"seeds": [3, 1]},
    "mi-tradeoff": {"b_magnitudes": [0.2]},
    "secrecy-gap": {"grid_points": 3},
    "mfg": {"grid": _grid(), "max_sweeps": 3},
    "lohe": {"q": 3, "d": 2, "stride": 3},
    "stackelberg": {"laws": [[[0.5, 0.5], [0.2, 0.8]]], "payoffs": [[1, 2], [3, 0]],
                    "drift": [[0.1, -0.1], [0.0, 0.0]], "stages": [0, 2]},
    "nash": {"weights": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "k": 2, "init": [0, 1, 0]},
    "plant": {"a1": [[0.5, 0.1], [0.0, 0.3]], "a2": [[1.0], [0.0]], "a3": [[1.0, 1.0]],
              "a4": [[0.1]]},
    "divergence": {"joint": (np.ones((2, 3, 4, 2)) / 48).tolist(),
                   "accessible": [0, 1], "inaccessible": [2, 3], "g1": 0.0, "g2": 1.0},
}
NESTED = {"instance": (cli.INSTANCE_KEYS, mirror.reference_binary_instance().to_jsonable()),
          "grid": (cli.GRID_KEYS, _grid())}


def nested(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
        max_leaves=12)


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10), st.integers(-2 ** 70, 2 ** 70),
    st.floats(), st.sampled_from([0.5, 1e308, -1e308, 5e-324, 2.5]),
    st.text(max_size=4), st.sampled_from(["two", "three", "cut", "printed"]))
values = nested(scalars)
unknown = st.one_of(st.sampled_from(["n_seedz", "Seed", "", "gamma_2", "bogus"]),
                    st.text(max_size=6))


def sized(cap):
    """A size key's value: a number in [-1, cap], or a value of another type
    that holds at most such numbers."""
    small = st.one_of(st.integers(-1, cap), st.floats(-1, cap))
    return st.one_of(small, nested(st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                                             small)))


@st.composite
def perturbed(draw, value):
    """`value` with one leaf of its nested lists redrawn, so that the shape
    checks pass and the value checks are reached."""
    if not isinstance(value, list) or not value:
        return draw(scalars)
    i = draw(st.integers(0, len(value) - 1))
    return value[:i] + [draw(perturbed(value[i]))] + value[i + 1:]


def value_for(key, current):
    if key in NESTED:
        return st.one_of(values, mutated(*NESTED[key]))
    if key in SIZE_CAPS:
        return st.one_of(sized(SIZE_CAPS[key]), *map(st.just, OVER_CAP.get(key, ())))
    if isinstance(current, list):
        return st.one_of(values, perturbed(current))
    return values


@st.composite
def mutated(draw, table, base):
    """`base` with up to three of `table`'s keys dropped or redrawn and,
    sometimes, an unknown key added."""
    cfg = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(table)), max_size=3, unique=True)):
        if draw(st.booleans()):
            cfg.pop(key, None)
        else:
            cfg[key] = draw(value_for(key, cfg.get(key)))
    if draw(st.integers(0, 7)) == 0:
        name = draw(unknown)
        cfg.setdefault(name, draw(values))
    return cfg


@st.composite
def configs(draw, cmd):
    base = dict(BASES[cmd]) if draw(st.booleans()) else {}
    cfg = draw(mutated(cli.SUBCOMMANDS[cmd][1], base))
    for key, value in SMALL.get(cmd, {}).items():
        cfg.setdefault(key, value)
    return cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(workdir, cmd, cfg):
    """`cli.main` on `cfg` with `--out` in `workdir`: the exit code, the
    stderr text and the output path."""
    path, out = workdir / "cfg.json", workdir / "out.csv"
    path.write_text(json.dumps(cfg))
    if out.exists():
        out.unlink()
    err = io.StringIO()
    # a finished run shows the warnings it held back; they are not the report
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main([cmd, "--config", str(path), "--out", str(out)])
    return rc, err.getvalue(), out


@pytest.mark.parametrize("cmd", list(cli.SUBCOMMANDS))
def test_every_base_is_a_valid_config(workdir, cmd):
    rc, err, _ = run(workdir, cmd, {**SMALL.get(cmd, {}), **BASES[cmd]})
    assert rc in (0, 1), err


@pytest.mark.parametrize("cmd", list(cli.SUBCOMMANDS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_config_contract(workdir, cmd, data):
    rc, err, out = run(workdir, cmd, data.draw(configs(cmd), label="config"))
    assert rc in (0, 1, 3, 4)
    assert "Traceback" not in err
    if rc in (3, 4):
        lines = err.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert set(report) == {"error", "field", "message"}
        assert not out.exists()
