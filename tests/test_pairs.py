"""`tools/pairs.py` on stand-in trees whose `bench/run.py` prints fixed
metrics per seed, so the order of the runs, the statistics, the failed
runs and the warnings can be checked in well under a second per run."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# A stand-in for bench/run.py: it logs "<root name> <seed>" to ../order.log
# and prints the metrics that its root's metrics.json holds for the seed,
# after one diagnostics line on stderr.
FAKE_RUN = """
import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
seed = sys.argv[sys.argv.index("--seed") + 1]
with open(os.path.join(root, os.pardir, "order.log"), "a") as fh:
    fh.write(f"{os.path.basename(root)} {seed}\\n")
with open(os.path.join(root, "metrics.json")) as fh:
    metrics = json.load(fh)[seed]
print(json.dumps({"speed": 0.5, "wall_raw_s": 2 * metrics["wall_s"]}), file=sys.stderr)
print(json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": {
    k: {"value": float(v), "unit": "x"} for k, v in metrics.items()}}))
"""


def pairs_tool():
    spec = importlib.util.spec_from_file_location(
        "pairs_tool", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_tree(directory, per_seed):
    """A root at `directory` whose bench/run.py prints `per_seed[seed]`."""
    os.makedirs(directory / "bench")
    (directory / "bench" / "run.py").write_text(FAKE_RUN)
    (directory / "metrics.json").write_text(json.dumps({str(k): v for k, v in per_seed.items()}))
    return str(directory)


def strict(path):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def run(tmp_path, base, tree, pairs):
    out = tmp_path / "bench.json"
    code = pairs_tool().main(["--base", base, "--tree", tree, "--workload", "w",
                              "--pairs", str(pairs), "--seconds", "1", "--out", str(out)])
    return code, strict(out)


def test_alternating_pairs_and_statistics(tmp_path, capsys):
    base = fake_tree(tmp_path / "base", {s: {"op_p50_ms": 10 + s, "wall_s": 2.0}
                                         for s in range(3)})
    tree = fake_tree(tmp_path / "tree", {0: {"op_p50_ms": 9, "wall_s": 2.0},
                                         1: {"op_p50_ms": 11, "wall_s": 2.5},
                                         2: {"op_p50_ms": 8, "wall_s": 2.0}})
    code, report = run(tmp_path, base, tree, 3)
    assert code == 0
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "base 0", "tree 0", "tree 1", "base 1", "base 2", "tree 2"]
    op = report["metrics"]["op_p50_ms"]
    assert op["base"] == {"median": 11.0, "q1": 10.5, "q3": 11.5, "n": 3}
    assert op["tree"]["median"] == 9.0
    assert op["change_pct"] == pytest.approx(-100 * 2 / 11)
    # pair 1 ties, and a tie counts for neither side
    assert (op["tree_wins"], op["base_wins"], op["pairs_compared"]) == (2, 0, 3)
    wall = report["metrics"]["wall_s"]
    assert (wall["tree_wins"], wall["base_wins"]) == (0, 1)
    assert [(r["side"], r["order"], r["processes"]) for r in report["runs"][2:4]] == [
        ("tree", 0, [{"speed": 0.5, "wall_raw_s": 5.0, "wall_s": None, "first_op_ms": None,
                      "cpu_s": None, "attempted": None, "failed": None}]),
        ("base", 1, [{"speed": 0.5, "wall_raw_s": 4.0, "wall_s": None, "first_op_ms": None,
                      "cpu_s": None, "attempted": None, "failed": None}])]
    assert report["failed"] == [] and report["warnings"] == []
    assert "op_p50_ms: base 11, tree 9 (-18.2 %), tree better in 2 of 3 pairs" in (
        capsys.readouterr().out)


def test_a_nan_metric_fails_the_run_and_names_it(tmp_path, capsys):
    base = fake_tree(tmp_path / "base", {s: {"op_p50_ms": 10, "wall_s": 1.0} for s in range(2)})
    tree = fake_tree(tmp_path / "tree", {0: {"op_p50_ms": 9, "wall_s": 1.0},
                                         1: {"op_p50_ms": "nan", "wall_s": 1.0}})
    code, report = run(tmp_path, base, tree, 2)
    assert code == 1
    assert report["failed"] == ["tree pair 1 seed 1: NaN in op_p50_ms"]
    assert report["runs"][2]["metrics"] == {"op_p50_ms": None, "wall_s": 1.0}
    op = report["metrics"]["op_p50_ms"]
    assert (op["tree"]["n"], op["base"]["n"], op["pairs_compared"]) == (1, 2, 1)
    assert "failed: tree pair 1 seed 1: NaN in op_p50_ms" in capsys.readouterr().out


def test_paths_of_unequal_length_warn(tmp_path, capsys):
    per_seed = {0: {"op_p50_ms": 10, "wall_s": 1.0}}
    base = fake_tree(tmp_path / "base", per_seed)
    tree = fake_tree(tmp_path / "tree-2", per_seed)
    code, report = run(tmp_path, base, tree, 1)
    assert code == 0
    assert len(report["warnings"]) == 1 and "differ in length" in report["warnings"][0]
    assert "warning: the roots' paths differ in length" in capsys.readouterr().err
    assert report["path_lengths"]["tree"] == report["path_lengths"]["base"] + 2
