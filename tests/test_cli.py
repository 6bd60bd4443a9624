"""CLI harness tests: determinism, exit codes, and module-oracle checks on
the emitted CSV."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mirrorwyner import mirror
from mirrorwyner.cli import main


def run_to_file(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("cmd", ["nash", "plant", "stackelberg",
                                     "divergence", "lohe", "secrecy-gap"])
    def test_byte_identical_reruns(self, tmp_path, cmd):
        rc1, b1 = run_to_file(tmp_path, [cmd, "--seed", "3"], "a.csv")
        rc2, b2 = run_to_file(tmp_path, [cmd, "--seed", "3"], "b.csv")
        assert rc1 == 0 and rc2 == 0
        assert b1 == b2

    def test_convergence_cdf_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_seeds": 6, "budget": 15}))
        args = ["convergence-cdf", "--config", str(cfg)]
        _, b1 = run_to_file(tmp_path, args, "a.csv")
        _, b2 = run_to_file(tmp_path, args, "b.csv")
        assert b1 == b2

    def test_seed_changes_output(self, tmp_path):
        _, b1 = run_to_file(tmp_path, ["plant", "--seed", "1"], "a.csv")
        _, b2 = run_to_file(tmp_path, ["plant", "--seed", "2"], "b.csv")
        assert b1 != b2

    def test_repetitions_stack_rows(self, tmp_path):
        rc, data = run_to_file(tmp_path, ["plant", "--repetitions", "3"])
        lines = data.decode().strip().split("\n")
        assert rc == 0
        assert len(lines) == 4  # header + one row per repetition
        assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2"]


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_malformed_json_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mfg", "--config", str(bad)]) == 3
        err = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert err["error"] == "ValidationError"
        assert err["field"] == "config"

    def test_invalid_payload_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"grid": {
            "x_min": 0.0, "x_max": 1.0, "n_x": 11, "n_t": 5, "dt": 0.001,
            "sigma": 0.1, "initial_density": [1.0] * 11}}))
        assert main(["mfg", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert err["field"] == "MfgGrid"

    def test_bad_repetitions(self, capsys):
        assert main(["plant", "--repetitions", "0"]) == 3

    @pytest.mark.parametrize("cmd,cfg,field", [
        ("mi-tradeoff", {"b_magnitudes": [2.0]}, "b_magnitudes"),
        ("mi-tradeoff", {"b_magnitudes": [-3.0]}, "b_magnitudes"),
        ("mi-tradeoff", {"n_samples": 0}, "n_samples"),
        ("secrecy-gap", {"b_magnitudes": [-0.5]}, "b_magnitudes"),
        ("secrecy-gap", {"n_samples": 0}, "n_samples"),
        ("mi-tradeoff", {"resolution": -1}, "resolution"),
        ("secrecy-gap", {"resolution": -1}, "resolution"),
        ("mi-tradeoff", {"grid_points": 1}, "grid_points"),
        ("mi-tradeoff", {"b_magnitudes": ["x"]}, "b_magnitudes"),
        ("mi-tradeoff", {"n_samples": 2.5}, "n_samples"),
        ("mi-tradeoff", {"theta": 2.0}, "theta"),
        ("convergence-cdf", {"n_seeds": 0}, "n_seeds"),
        ("convergence-cdf", {"n_seeds": "abc"}, "n_seeds"),
        ("convergence-cdf", {"seeds": [1, 1]}, "seeds"),
        ("convergence-cdf", {"budget": 0}, "budget"),
        ("divergence", {"g1": "x"}, "g1"),
        ("mfg", {"max_sweeps": 0}, "max_sweeps"),
        ("lohe", {"stride": 0}, "stride"),
        ("plant", {"a1": [[0.5]], "a2": [[1.0]]}, "a3"),
        ("plant", {"n": 0}, "n"),
        ("convergence-cdf", {"eps": [0.01]}, "eps"),
        ("convergence-cdf", {"mode": "four"}, "mode"),
    ])
    def test_bad_sweep_input_names_key(self, tmp_path, capsys, cmd, cfg, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0])["field"] == field
        assert not (tmp_path / "o.csv").exists()

    def test_plant_matrices_ignore_other_keys(self, tmp_path):
        cfg = tmp_path / "plant.json"
        cfg.write_text(json.dumps({"a1": [[0.5]], "a2": [[1.0]], "a3": [[1.0]],
                                   "a4": [[0.1]], "n": 1}))
        rc, data = run_to_file(tmp_path, ["plant", "--config", str(cfg)])
        assert rc == 0
        # closed loop 0.5 + 1.0 * 0.1 * 1.0: both ranks full, radius 0.6
        assert data.decode().split("\n")[1] == "0,1,1,1,1,1,0.6,1"

    # the step overflows on purpose; numpy's warnings about it are not the report
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_arithmetic_failure_exit_4(self, tmp_path, capsys):
        cfg = tmp_path / "lohe.json"
        cfg.write_text(json.dumps({"dt": 1e6}))
        out = tmp_path / "o.csv"
        assert main(["lohe", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "NumericError", "field": "lohe",
            "message": "non-finite state at step 3"}
        assert not out.exists()

    def test_top_level_array_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["plant", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert err["error"] == "ValidationError"
        assert err["field"] == "config"


def test_import_leaves_scipy_stats_unloaded():
    # only convergence-cdf uses scipy.stats, and it imports it when it runs
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, mirrorwyner.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
CONFIG_SUBCOMMANDS = {"convergence": "convergence-cdf", "mfg": "mfg",
                      "secrecy_gap": "secrecy-gap", "tradeoff": "mi-tradeoff"}
HEADERS = {
    "convergence-cdf": "rep,record,variant,value,col_a,col_b,col_c,tag",
    "mfg": "rep,k,x,J,P_df",
    "secrecy-gap": "rep,b_magnitude,grid_index,budget_norm,gap_bits,leakage_chance,solved",
    "mi-tradeoff": "rep,b_magnitude,grid_index,leakage_norm,utility_norm,utility_bits,feasible",
}


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CONFIGS) if f.endswith(".json")))
def test_example_config_runs(tmp_path, name):
    cmd = next(c for prefix, c in CONFIG_SUBCOMMANDS.items() if name.startswith(prefix))
    rc, data = run_to_file(tmp_path, [cmd, "--config", os.path.join(CONFIGS, name)])
    assert rc == 0
    assert data.decode().split("\n", 1)[0] == HEADERS[cmd]


class TestModuleOracles:
    def test_nash_output_verified(self, tmp_path):
        rc, data = run_to_file(tmp_path, ["nash"])
        assert rc == 0
        header, row = data.decode().strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["is_nash"] == "1"
        assert cells["converged"] == "1"

    def test_mfg_mass_conserved(self, tmp_path):
        rc, data = run_to_file(tmp_path, ["mfg"])
        assert rc == 0
        lines = data.decode().strip().split("\n")
        rows = np.array([l.split(",") for l in lines[1:]], dtype=float)
        ks = rows[:, 1].astype(int)
        xs = np.unique(rows[:, 2])
        dx = xs[1] - xs[0]
        for k in np.unique(ks):
            mass = rows[ks == k, 4].sum() * dx
            assert abs(mass - 1.0) < 1e-6

    def test_secrecy_gap_monotone(self, tmp_path):
        rc, data = run_to_file(tmp_path, ["secrecy-gap"])
        assert rc == 0
        lines = data.decode().strip().split("\n")[1:]
        by_mag = {}
        for line in lines:
            cells = line.split(",")
            by_mag.setdefault(cells[1], []).append(float(cells[4]))
        assert set(by_mag) == {"0.6", "0.7"}
        for gaps in by_mag.values():
            assert all(b >= a - 1e-6 for a, b in zip(gaps, gaps[1:]))

    def test_secrecy_gap_unsolvable_budget(self, tmp_path):
        # no virtual symbol is 0, so no mapping fits the zero power budget
        inst = mirror.reference_binary_instance().to_jsonable()
        inst["symbol_values"] = [[1, 2], [1, 2]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": inst}))
        rc, data = run_to_file(tmp_path, ["secrecy-gap", "--config", str(cfg)])
        assert rc == 0
        header, *lines = data.decode().strip().split("\n")
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert rows
        for row in rows:
            if row["grid_index"] == "0":
                assert (row["gap_bits"], row["solved"]) == ("0", "0")
            else:
                assert row["solved"] == "1"

    def test_mi_tradeoff_frontier(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid_points": 4, "n_samples": 32}))
        rc, data = run_to_file(tmp_path, ["mi-tradeoff", "--config", str(cfg)])
        assert rc == 0
        lines = data.decode().strip().split("\n")[1:]
        by_mag = {}
        for line in lines:
            cells = line.split(",")
            by_mag.setdefault(cells[1], []).append(float(cells[4]))
        # utility non-decreasing in the leakage budget for every panel
        for utils in by_mag.values():
            assert all(b >= a - 1e-9 for a, b in zip(utils, utils[1:]))
        # the milder uncertainty frontier dominates pointwise
        for a, b in zip(by_mag["0.1"], by_mag["0.5"]):
            assert a >= b - 1e-9

    # 21 leakage bounds resolve the draws finely enough that a transposed
    # noise stream changes the frontier; the default 6 do not
    @pytest.mark.parametrize("grid_points", [6, 21])
    def test_mi_tradeoff_exact_oracle(self, tmp_path, grid_points):
        # the frontier recomputed from scratch: one generator per mapping
        # seeded seed + 1000 * index, one uniform draw per perturbed
        # posterior, and MI as a plain double sum
        seed, mags, n_samples, res = 3, [0.1, 0.5], 16, 4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": res, "n_samples": n_samples,
                                   "b_magnitudes": mags, "grid_points": grid_points}))
        rc, data = run_to_file(tmp_path, ["mi-tradeoff", "--config", str(cfg),
                                          "--seed", str(seed)])
        assert rc == 0

        def mi(joint):
            pa, pb = joint.sum(axis=1), joint.sum(axis=0)
            return sum(joint[i, j] * np.log2(joint[i, j] / (pa[i] * pb[j]))
                       for i in range(joint.shape[0]) for j in range(joint.shape[1])
                       if joint[i, j] > 0)

        p_sx = mirror.reference_binary_instance().joints[0].table
        p_x = p_sx.sum(axis=0)
        ticks = np.linspace(0.0, 1.0, res + 1)
        grid = [np.array([[a, 1 - a], [b, 1 - b]]) for a in ticks for b in ticks]
        utilities = np.array([mi(p_x[:, None] * o) for o in grid])
        i_sx, h_x = mi(p_sx), -np.sum(p_x * np.log2(p_x))
        expected = []
        for mag in mags:
            draws = np.zeros((len(grid), n_samples))
            for mi_idx, o in enumerate(grid):
                rng = np.random.default_rng(seed + 1000 * mi_idx)
                sy = p_sx @ o
                p_y = sy.sum(axis=0)
                for k in range(n_samples):
                    post = np.zeros((2, 2))   # (Yo, S)
                    for y in range(2):
                        if p_y[y] > 0:
                            post[y] = sy[:, y] / p_y[y]
                    noisy = post * (1.0 + mag * rng.uniform(-1.0, 1.0, size=(2, 2)))
                    for y in range(2):
                        if noisy[y].sum() > 0:
                            post[y] = noisy[y] / noisy[y].sum()
                    draws[mi_idx, k] = mi((p_y[:, None] * post).T)
            for gi, bound in enumerate(np.linspace(0.0, i_sx, grid_points)):
                feas = np.mean(draws <= bound + mirror.NULL_TOL, axis=1) >= 0.9
                best = utilities[feas].max() if feas.any() else 0.0
                expected.append((mag, gi, bound / i_sx, best / h_x, best, int(feas.any())))
        lines = data.decode().strip().split("\n")[1:]
        assert len(lines) == len(expected)
        for line, exp in zip(lines, expected):
            got = [float(c) for c in line.split(",")]
            assert got[0] == 0 and got[1:3] == list(exp[:2]) and got[6] == exp[5]
            np.testing.assert_allclose(got[3:6], exp[2:5], rtol=0, atol=1e-11)

    def test_mi_tradeoff_one_sampler_call_per_point(self, tmp_path, monkeypatch):
        calls = []
        sample = mirror.sample_leakage
        monkeypatch.setattr(mirror, "sample_leakage",
                            lambda *a, **kw: calls.append(a) or sample(*a, **kw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"resolution": 4, "n_samples": 16,
                                   "b_magnitudes": [0.1, 0.5]}))
        rc, _ = run_to_file(tmp_path, ["mi-tradeoff", "--config", str(cfg)])
        assert rc == 0
        assert len(calls) == 2 * 25

    def test_convergence_cdf_mode_three_counts_tight(self, tmp_path):
        counts = {}
        for mode in ("two", "three"):
            cfg = tmp_path / f"{mode}.json"
            cfg.write_text(json.dumps({"n_seeds": 4, "budget": 8, "mode": mode}))
            rc, data = run_to_file(tmp_path, ["convergence-cdf", "--config", str(cfg)],
                                   f"{mode}.csv")
            rows = [l.split(",") for l in data.decode().strip().split("\n")[1:]]
            counts[mode] = [r for r in rows if r[1:3] == ["summary", "completed_tight"]]
            if mode == "three":
                tight_runs = [r for r in rows if r[1:3] == ["run", "relaxed_tight"]
                              and int(r[4]) >= 0]
                assert tight_runs
                # the row comes right after `completed`
                at = [r[1:3] for r in rows].index(["summary", "completed"])
                assert rows[at + 1] == ["0", "summary", "completed_tight", "",
                                        str(len(tight_runs)), "", "", ""]
        assert counts["two"] == []

    def test_convergence_cdf_degenerate_budget(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # budget 1: every run records exactly one pass, a degenerate CDF at 1
        cfg.write_text(json.dumps({"n_seeds": 4, "budget": 1}))
        rc, data = run_to_file(tmp_path, ["convergence-cdf", "--config", str(cfg)])
        lines = [l for l in data.decode().strip().split("\n") if ",run," in l]
        assert lines
        assert all(l.split(",")[4] == "1" for l in lines)

    def test_lohe_sync_column(self, tmp_path):
        rc, data = run_to_file(tmp_path, ["lohe"])
        assert rc == 0
        lines = data.decode().strip().split("\n")[1:]
        final_sync = float(lines[-1].split(",")[2])
        assert final_sync > 0.99

    def test_stdout_when_no_out(self, capsys):
        assert main(["plant"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rep,n,ctrb_rank")
