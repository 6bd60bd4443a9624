"""Runs each workload at a tiny size in-process, shows that its outputs pass
every check, then corrupts one output value at a time and shows that the
check meant to catch it fails.

    python3 -m pytest bench/test_bench.py -q
"""

import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402
from mirrorwyner import cli, mirror, solvers  # noqa: E402

# seconds that give the smallest batch of each workload
TINY = {"cdf_reference": 0.4, "cdf_wide": 2.0, "tradeoff_sweep": 1.0,
        "field_dynamics": 0.4}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for name, seconds in TINY.items():
        plan = workloads.make_plan(name, seed=5, seconds=seconds)
        plan.write_configs(str(tmp_path_factory.mktemp(name)))
        ops, outputs, _ = child.run_plan(plan, cli.main, solvers, "run")
        out[name] = (plan, ops, child.read_outputs(outputs))
    return out


def set_cell(text, row, col, value):
    """Replace one cell of a CLI CSV; row and col index `checks.csv_rows`."""
    lines = text.strip("\n").split("\n")
    cells = lines[1 + row].split(",")
    cells[1 + col] = value
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def first_output(runs, subcommand):
    for plan, _, outputs in runs.values():
        for call, _, rc, text in outputs:
            if call.subcommand == subcommand:
                return call, rc, text
    raise AssertionError(subcommand)


def row_index(text, pred):
    return next(i for i, r in enumerate(checks.csv_rows(text)) if pred(r))


@pytest.mark.parametrize("name", list(TINY))
def test_clean_run_passes(runs, name):
    plan, ops, outputs = runs[name]
    failed, messages = child.check_outputs(plan, ops, outputs, mirror)
    assert ops and not any(failed), messages


def _bump(text, pred, col, delta):
    i = row_index(text, pred)
    cell = checks.csv_rows(text)[i][col]
    new = int(cell) + delta if cell.lstrip("-").isdigit() else float(cell) + delta
    return set_cell(text, i, col, repr(new))


def _swap_mass(text):
    """Move density mass within the last time row: the mass stays 1 but the
    variance no longer follows the heat kernel."""
    rows = checks.csv_rows(text)
    last = int(rows[-1][0])
    idx = [i for i, r in enumerate(rows) if int(r[0]) == last]
    centre, tail = idx[len(idx) // 2], idx[len(idx) // 2 + 20]
    d = 0.01
    text = set_cell(text, centre, 3, repr(float(rows[centre][3]) - d))
    return set_cell(text, tail, 3, repr(float(rows[tail][3]) + d))


def _last_of_first_magnitude(text):
    rows = checks.csv_rows(text)
    first = rows[0][0]
    return max(i for i, r in enumerate(rows) if r[0] == first)


CSV_CORRUPTIONS = [
    ("convergence-cdf", "fraction",
     lambda t: _bump(t, lambda r: r[0] == "cdf", 3, -0.25)),
    ("convergence-cdf", "completed row",
     lambda t: _bump(t, lambda r: r[1] == "completed", 5, 1)),
    ("mi-tradeoff", "no grid mapping",
     lambda t: _bump(t, lambda r: float(r[4]) > 0, 4, 1e-4)),
    ("mi-tradeoff", "exceeds H(X)",
     lambda t: set_cell(t, _last_of_first_magnitude(t), 4, "1.5")),
    ("mi-tradeoff", "utility decreases",
     lambda t: set_cell(t, _last_of_first_magnitude(t), 4, "0")),
    ("secrecy-gap", "gap decreases",
     lambda t: set_cell(t, _last_of_first_magnitude(t), 3, "-1")),
    ("secrecy-gap", "outside [0, 1]",
     lambda t: set_cell(t, 0, 4, "1.5")),
    ("mfg", "negative density", lambda t: set_cell(t, 0, 3, "-0.001")),
    ("mfg", "mass", lambda t: _bump(t, lambda r: True, 3, 0.01)),
    ("mfg", "heat kernel", _swap_mass),
    ("lohe", "state norm", lambda t: set_cell(t, 3, 3, "1.000001")),
    ("lohe", "sync order", lambda t: set_cell(t, 3, 1, "1.5")),
    ("nash", "improves by switching", lambda t: set_cell(t, 0, 0, "|".join(["0"] + ["1"] * 7))),
    ("plant", "controllability rank", lambda t: _bump(t, lambda r: True, 1, 1)),
    ("plant", "observability rank", lambda t: _bump(t, lambda r: True, 3, 1)),
    ("plant", "spectral radius", lambda t: _bump(t, lambda r: True, 5, 1e-3)),
    ("stackelberg", "brute-force maximum", lambda t: _bump(t, lambda r: True, 3, -1e-3)),
    ("divergence", "total CMI", lambda t: _bump(t, lambda r: r[0] == "total", 2, 1e-6)),
    ("divergence", "per-slice", lambda t: _bump(t, lambda r: r[0] == "per_z", 2, 1e-6)),
]


@pytest.mark.parametrize("subcommand,expect,corrupt", CSV_CORRUPTIONS,
                         ids=[f"{s}-{e}" for s, e, _ in CSV_CORRUPTIONS])
def test_csv_check_catches_corruption(runs, subcommand, expect, corrupt):
    call, rc, text = first_output(runs, subcommand)
    assert checks.check_call(subcommand, call.config, rc, text) == []
    errs = checks.check_call(subcommand, call.config, rc, corrupt(text))
    assert any(expect in e for e in errs), errs


def test_exit_code_is_checked(runs):
    call, _, text = first_output(runs, "plant")
    assert checks.check_call("plant", call.config, 1, text)


def test_corrupt_call_fails_its_ops(runs):
    plan, ops, outputs = runs["cdf_reference"]
    call, r, rc, text = outputs[0]
    bad = [(call, r, rc, _bump(text, lambda row: row[1] == "completed", 5, 1))]
    failed, _ = child.check_outputs(plan, ops, bad, mirror)
    assert all(failed)


def _unrelaxed_row(text):
    return row_index(text, lambda r: r[0] == "run" and r[1] == "unrelaxed")


def _flip(text, col):
    i = _unrelaxed_row(text)
    cell = checks.csv_rows(text)[i][col]
    return set_cell(text, i, col, "0" if cell == "1" else "1")


# corruptions of one unrelaxed `run` row that the CSV check cannot see
RUN_ROW_CORRUPTIONS = [
    ("feasible flag", lambda t: _flip(t, 5)),
    ("converged but not feasible",
     lambda t: set_cell(set_cell(t, _unrelaxed_row(t), 4, "1"), _unrelaxed_row(t), 5, "0")),
    ("no run row", lambda t: set_cell(t, _unrelaxed_row(t), 2, "-7")),
]


@pytest.mark.parametrize("workload", ["cdf_reference", "cdf_wide"])
@pytest.mark.parametrize("expect,corrupt", RUN_ROW_CORRUPTIONS,
                         ids=[e for e, _ in RUN_ROW_CORRUPTIONS])
def test_run_row_check_catches_corruption(runs, workload, expect, corrupt):
    plan, ops, outputs = runs[workload]
    call, r, rc, text = outputs[0]
    bad = [(call, r, rc, corrupt(text))]
    failed, messages = child.check_outputs(plan, ops, bad, mirror)
    assert any(failed) and any(expect in m for m in messages), messages


def test_run_row_check_catches_pass_count(runs):
    plan, ops, outputs = runs["cdf_reference"]
    inst, _, trace, kwargs = ops[0].solve
    oracle = checks.condition_oracle(*solve_args(ops[0]))
    row = checks.run_rows(outputs[0][3])[
        ("relaxed" if kwargs["relaxed"] else "unrelaxed", kwargs["seed"])]
    gammas = (inst.gamma0, inst.gamma1, inst.gamma2, inst.gamma3)
    n, budget = trace.iterations, kwargs["budget"]
    for row_passes, solve_passes, expect in ((n, n, None),
                                             (n + 1, n, "the solve made"),
                                             (budget + 1, budget + 1, "outside")):
        errs = checks.check_run_row(row[:3] + [str(row_passes)] + row[4:], oracle[0],
                                    gammas, kwargs["relaxed"], budget, solve_passes)
        assert (expect is None and errs == []) or any(expect in e for e in errs), errs


def test_nash_dynamics_move(runs):
    """The generated start is no equilibrium, so the dynamics make a move
    and need a second sweep to confirm the result."""
    _, _, text = first_output(runs, "nash")
    assert int(checks.csv_rows(text)[0][1]) > 1


def solve_args(op):
    inst, asg, _, _ = op.solve
    return ([j.table for j in inst.joints], [m.rows for m in asg.original],
            [m.rows for m in asg.virtual], inst.symbol_values)


# (condition index to corrupt, expected message, new value from the
# enumeration's values, I(S;X) and H(X))
SOLVE_CORRUPTIONS = [
    (0, "enumeration", lambda v, i_sx, h_x: v[0, 0] + 1e-7),
    (1, "leakage <= I(S;X)", lambda v, i_sx, h_x: i_sx[0] + 0.01),
    (2, "(iii) <= I(S;X)", lambda v, i_sx, h_x: i_sx[0] + 0.01),
    (5, "(vi) <= (iii)", lambda v, i_sx, h_x: v[0, 2] + 0.01),
    (4, "(v) <= I(Yo;S)", lambda v, i_sx, h_x: v[0, 1] + 0.01),
    (4, "(v) <= (vi)", lambda v, i_sx, h_x: v[0, 5] + 0.01),
    (0, "utility <= H(X)", lambda v, i_sx, h_x: h_x[0] + 0.01),
    (6, "(vii) <= utility", lambda v, i_sx, h_x: v[0, 0] + 0.01),
]


@pytest.mark.parametrize("workload", ["cdf_reference", "cdf_wide"])
@pytest.mark.parametrize("col,expect,value", SOLVE_CORRUPTIONS,
                         ids=[e for _, e, _ in SOLVE_CORRUPTIONS])
def test_solve_check_catches_corruption(runs, workload, col, expect, value):
    _, ops, _ = runs[workload]
    inst, asg, _, _ = ops[0].solve
    vals = mirror.condition_values(inst, asg)
    oracle = checks.condition_oracle(*solve_args(ops[0]))
    assert checks.check_solve(oracle, vals) == []
    bad = np.array(vals)
    bad[0, col] = value(*oracle)
    errs = checks.check_solve(oracle, bad)
    assert any(expect in e for e in errs), errs
