"""Shared strategies and helpers for the test suite."""

import hashlib
import importlib.util
import os
import sys

import numpy as np
from hypothesis import strategies as st

from mirrorwyner import cli
from mirrorwyner.prob import JointPmf2, JointPmf3, Pmf


# the subcommand of each configs/ file, by the start of its name
CONFIG_SUBCOMMANDS = {"convergence": "convergence-cdf", "mfg": "mfg",
                      "secrecy_gap": "secrecy-gap", "tradeoff": "mi-tradeoff"}


def _normalize(values):
    arr = np.asarray(values, dtype=float)
    return arr / arr.sum()


@st.composite
def pmfs(draw, min_size=2, max_size=6):
    n = draw(st.integers(min_size, max_size))
    vals = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    return Pmf(_normalize(vals))


@st.composite
def joint2(draw, max_size=5):
    a = draw(st.integers(2, max_size))
    b = draw(st.integers(2, max_size))
    vals = draw(st.lists(st.floats(1e-3, 1.0), min_size=a * b, max_size=a * b))
    return JointPmf2(_normalize(vals).reshape(a, b))


@st.composite
def joint3(draw, max_size=4):
    dims = tuple(draw(st.integers(2, max_size)) for _ in range(3))
    k = int(np.prod(dims))
    vals = draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k))
    return JointPmf3(_normalize(vals).reshape(dims))


def kl_or_inf(p, q):
    """D(p || q) in bits of two pmf arrays by a plain sum over the support of
    p; +inf when p puts mass where q has none."""
    nz = p > 0
    if np.any(q[nz] == 0):
        return np.inf
    return float(np.sum(p[nz] * np.log2(p[nz] / q[nz])))


def cmi_loops(xyz):
    """I(X;Y|Z) in bits of a joint table xyz[x, y, z] by plain triple summation."""
    p_z = xyz.sum(axis=(0, 1))
    p_xz = xyz.sum(axis=1)
    p_yz = xyz.sum(axis=0)
    total = 0.0
    for x in range(xyz.shape[0]):
        for y in range(xyz.shape[1]):
            for z in range(xyz.shape[2]):
                p = xyz[x, y, z]
                if p > 0:
                    total += p * np.log2(p * p_z[z] / (p_xz[x, z] * p_yz[y, z]))
    return total


def cli_env():
    """The environment for a subprocess that imports the package from src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def bench_module(name):
    """The module bench/<name>.py, loaded by file path: bench/ is not a package."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def wide_instance(seed):
    """`bench/workloads.wide_instance`: Q=4, |S|=3, |X|=|Yo|=|Yv|=5, decoded
    as the CLI decodes an `instance` config key."""
    workloads = bench_module("workloads")
    return cli._read_instance("instance", workloads.wide_instance(np.random.default_rng(seed)))


def solve_digest(asg, trace, values=True):
    """The sha256 of a greedy solve's search path: each pass's (objective,
    merit, accepted) as float64 bytes, the converged and feasible flags, and
    the bytes of every final original and virtual row. With values=False the
    passes give only their accept flags, so the digest keeps the pass count,
    the decisions and the rows but not the merit bits, which on a wide
    instance follow the BLAS thread count."""
    h = hashlib.sha256()
    for it in trace.iterates:
        h.update(np.array([it.objective, it.merit, it.accepted] if values
                          else [it.accepted], dtype=np.float64).tobytes())
    h.update(bytes([trace.converged, trace.feasible]))
    for m in (*asg.original, *asg.virtual):
        h.update(m.rows.tobytes())
    return h.hexdigest()
