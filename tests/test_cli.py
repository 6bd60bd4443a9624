"""CLI harness tests: determinism, exit codes, and module-oracle checks on
the emitted CSV."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mirrorwyner import cli, mirror, solvers
from mirrorwyner import nonstationary as ns
from mirrorwyner.cli import main
from mirrorwyner.errors import ValidationError

from conftest import CONFIG_SUBCOMMANDS, bench_module, cli_env


REF_INSTANCE = mirror.reference_binary_instance().to_jsonable()


def run_to_file(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_bytes()


class TestDeterminism:
    @pytest.mark.parametrize("cmd", ["nash", "plant", "stackelberg", "divergence",
                                     "lohe", "secrecy-gap", "mfg", "mi-tradeoff"])
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


def _drop(obj, key):
    return {k: v for k, v in obj.items() if k != key}


# a small mfg grid with a live drift; its density integrates to 1
SMALL_GRID = {"x_min": -1.0, "x_max": 1.0, "n_x": 11, "n_t": 4, "dt": 0.01, "sigma": 0.1,
              "initial_density": [1 / 2.2] * 11, "mu_weight": [1.0] * 4,
              "terminal_value": [0.1 * i for i in range(11)]}


def courant_grid():
    """An mfg grid whose drift, about 6.7e297, breaks the upwind sweep's
    Courant bound; computing it overflows, so numpy warns on the way."""
    xs = np.linspace(-3.0, 3.0, 21)
    dens = np.exp(-xs ** 2 / 2)
    return {"x_min": -3.0, "x_max": 3.0, "n_x": 21, "n_t": 3, "dt": 0.01, "sigma": 0.1,
            "initial_density": list(dens / (dens.sum() * 0.3)),
            "mu_weight": [1e300] * 3, "terminal_value": list(xs)}


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

    def test_integer_past_the_digit_limit_exit_3(self, tmp_path, capsys):
        # json.load raises a plain ValueError for an integer longer than the
        # interpreter's int/str conversion limit of 4,300 digits
        big = tmp_path / "big.json"
        big.write_text('{"n": 1' + "0" * 5000 + "}")
        assert main(["plant", "--config", str(big)]) == 3
        err = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert (err["error"], err["field"]) == ("ValidationError", "config")

    def test_invalid_payload_names_field(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"grid": {
            "x_min": 0.0, "x_max": 1.0, "n_x": 11, "n_t": 5, "dt": 0.001,
            "sigma": 0.1, "initial_density": [1.0] * 11}}))
        assert main(["mfg", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert err["field"] == "MfgGrid"

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        out = tmp_path / "missing" / "o.csv"
        assert main(["plant", "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0])["field"] == "out"
        assert not out.parent.exists()

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
        ("convergence-cdf", {"eps": [0, 0.01, 0.01]}, "eps"),
        ("lohe", {"dt": -1}, "dt"),
        ("lohe", {"steps": 0}, "steps"),
        ("lohe", {"hbar": 0}, "hbar"),
        ("lohe", {"coupling": "printd"}, "coupling"),
        ("mfg", {"tol": 0}, "tol"),
        ("mfg", {"damping": 2}, "damping"),
        ("mfg", {"damping": 0}, "damping"),
        ("nash", {"payoff_mode": "bogus"}, "payoff_mode"),
        # a key the run would not use is checked all the same: given weights,
        # nash draws no random game of n players
        ("nash", {"weights": [[0, 1], [1, 0]], "k": 2, "n": "x"}, "n"),
        ("stackelberg", {"laws": [[[1.0]]], "payoffs": [[1.0]], "n_laws": 0}, "n_laws"),
        # a key that another key needs is required once that one is given
        ("nash", {"weights": [[0, 1], [1, 0]]}, "k"),
        ("stackelberg", {"laws": [[[0.5, 0.5]]]}, "payoffs"),
        ("plant", {"a1": [[0.5]]}, "a2"),
        ("stackelberg", {"laws": [[0.5, 0.5]], "payoffs": [1, 2]}, "StackelbergInstance"),
        ("stackelberg", {"laws": [[[0.5, 0.5]]], "payoffs": [[1, 2]], "drift": [[1, 2, 3]],
                         "stages": [1]}, "StackelbergInstance"),
        ("stackelberg", {"laws": [[[0.5, 0.5]]], "payoffs": [[1, 2]], "drift": [[1, 2, 3]],
                         "stages": [0]}, "StackelbergInstance"),
        ("plant", {"a1": [[float("nan")]], "a2": [[1.0]], "a3": [[1.0]], "a4": [[1.0]]}, "a1"),
        # a number key takes only finite numbers (JSON `Infinity` and `-Infinity`)
        ("mfg", {"tol": float("inf")}, "tol"),
        ("mfg", {"tol": -float("inf")}, "tol"),
        ("lohe", {"alpha": float("inf")}, "alpha"),
        ("lohe", {"alpha": -float("inf")}, "alpha"),
        # an out-of-range value fails under its key, not the class it builds
        ("nash", {"k": 1}, "k"),
        # g1 is checked against g2, given or derived (log2 2 = 1 here)
        ("divergence", {"g1": 2, "g2": 1}, "g1"),
        ("divergence", {"g1": 1.5}, "g1"),
        # a drawn game's laws are 6x4, so a 1x1 drift is the wrong shape
        ("stackelberg", {"drift": [[1]]}, "StackelbergInstance"),
        # a repeated slice index would count its slice twice
        ("divergence", {"accessible": [0, 0, 1, 2], "inaccessible": [3], "g2": 1.0},
         "AccessMask"),
        ("divergence", {"accessible": [0, 1, 2], "inaccessible": [3, 3], "g2": 1.0},
         "AccessMask"),
        # n_seeds is derived from seeds, so a given one must agree with them
        ("convergence-cdf", {"seeds": [1, 2], "n_seeds": 5}, "n_seeds"),
        # an integer past the float range fails under its number key
        ("lohe", {"alpha": 10 ** 400}, "alpha"),
        ("divergence", {"g1": 10 ** 400}, "g1"),
        ("divergence", {"g2": -10 ** 400}, "g2"),
        ("mfg", {"damping": 10 ** 400}, "damping"),
        ("mfg", {"tol": 10 ** 400}, "tol"),
        ("convergence-cdf", {"eps": [10 ** 400]}, "eps"),
        # a derived key, given, must agree with the key that fixes it
        ("divergence", {"accessible": [0, 1], "inaccessible": [3]}, "AccessMask"),
        ("divergence", {"accessible": [0, 9]}, "AccessMask"),
        ("convergence-cdf", {"instance": dict(REF_INSTANCE, virtual_alphabet=3)},
         "MirrorGameInstance"),
        ("mfg", {"grid": dict(SMALL_GRID, n_x=12)}, "MfgGrid"),
        # left out, it is derived from a malformed key, which the class rejects
        ("mfg", {"grid": dict(_drop(SMALL_GRID, "n_x"), initial_density=1.0)}, "MfgGrid"),
        *[("convergence-cdf", {"instance": dict(_drop(REF_INSTANCE, "virtual_alphabet"),
                                                symbol_values=rows)}, "MirrorGameInstance")
          for rows in ([], [[], []], [0.0, 1.0], [[0.0, 1.0], [0.0, 1.0, 2.0]])],
    ])
    def test_bad_sweep_input_names_key(self, tmp_path, capsys, cmd, cfg, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0])["field"] == field
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("cmd,cfg,key", [
        ("nash", {"weights": "abc"}, "weights"),
        ("nash", {"init": "ab"}, "init"),
        ("stackelberg", {"laws": 5}, "laws"),
        ("plant", {"a1": "x", "a2": 1, "a3": 1, "a4": 1}, "a1"),
        ("mfg", {"grid": 3}, "grid"),
        ("convergence-cdf", {"instance": 3}, "instance"),
        ("lohe", {"common_hamiltonian": "no"}, "common_hamiltonian"),
        ("convergence-cdf", {"instance": dict(REF_INSTANCE, virtual_alphabet=2.7)},
         "instance: virtual_alphabet"),
        ("convergence-cdf", {"instance": dict(REF_INSTANCE, gamma2=True)}, "instance: gamma2"),
        ("convergence-cdf", {"instance": {k: v for k, v in REF_INSTANCE.items()
                                          if k != "joints"}}, "instance: joints"),
        ("mi-tradeoff", {"instance": dict(REF_INSTANCE, gamma0="abc")}, "instance: gamma0"),
        ("secrecy-gap", {"instance": dict(REF_INSTANCE, symbol_values=[[0.0, 1.0]])},
         "MirrorGameInstance"),
        ("convergence-cdf", {"instance": dict(REF_INSTANCE, gamma_2=5)}, "instance: gamma_2"),
        ("mi-tradeoff", {"instance": dict(REF_INSTANCE, gamma0=[])}, "MirrorGameInstance"),
        ("mi-tradeoff", {"instance": dict(REF_INSTANCE, symbol_values=0)},
         "instance: symbol_values"),
        ("mfg", {"grid": dict(courant_grid(), bogus=1)}, "grid: bogus"),
        ("mfg", {"grid": dict(courant_grid(), p_bar="x")}, "grid: p_bar"),
        ("mfg", {"grid": {k: v for k, v in courant_grid().items() if k != "dt"}}, "grid: dt"),
        # an integer past the float range fails under its nested number key
        ("convergence-cdf", {"instance": dict(REF_INSTANCE, gamma2=10 ** 400)},
         "instance: gamma2"),
        ("mfg", {"grid": dict(courant_grid(), x_max=10 ** 400)}, "grid: x_max"),
    ])
    def test_bad_structured_field_names_key(self, tmp_path, capsys, cmd, cfg, key):
        # the report's field is the top-level key; its message names the nested one
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        report = json.loads(err[0])
        assert (report["error"], report["field"]) == ("ValidationError", key.split(":")[0])
        assert report["message"].startswith(key + ":")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("cmd,cfg", [
        ("convergence-cdf", {"n_seedz": 3, "n_seeds": 2, "budget": 2}),
        ("mi-tradeoff", {"thetaa": 0.9}),
        ("secrecy-gap", {"theta": 0.9}),
        ("mfg", {"grid_": {}}),
        ("lohe", {"steps": 3, "dts": 0.1}),
        ("stackelberg", {"stage": [0]}),
        ("nash", {"payoff": "cut"}),
        ("plant", {"A1": [[0.5]]}),
        ("divergence", {"gamma1": 0.0}),
        # plant takes no noise covariances and divergence no temperatures
        ("plant", {"process_cov": [[-1.0]]}),
        ("divergence", {"theta0": 1.0}),
    ])
    def test_unknown_key_names_itself(self, tmp_path, capsys, cmd, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        (key,) = set(cfg) - set(cli.SUBCOMMANDS[cmd][1])
        assert json.loads(err[0]) == {"error": "ValidationError", "field": key,
                                      "message": f"{key}: unknown key"}
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("cmd", list(cli.SUBCOMMANDS))
    def test_negative_seed_exits_3(self, tmp_path, capsys, cmd):
        out = tmp_path / "o.csv"
        assert main([cmd, "--seed", "-1", "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        report = json.loads(err[0])
        assert (report["error"], report["field"]) == ("ValidationError", "seed")
        assert not out.exists()

    @pytest.mark.parametrize("cfg,field", [({"d": 16384}, "d"),
                                           ({"steps": 6234786069185}, "steps"),
                                           ({"q": 2 ** 23, "d": 2}, "q"),
                                           ({"q": 2 ** 20, "d": 1, "steps": 1,
                                             "stride": 1}, "q")])
    def test_lohe_size_cap_allocates_nothing(self, tmp_path, capsys, cfg, field):
        # d = 16384 would take 8 GiB of Hamiltonians, the steps 726 TiB of
        # trajectory and q = 2**20 an 8 TiB coupling matrix; each config fails
        # under its largest factor's key first
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(json.dumps(cfg))
        cli._parser()   # built once per process, outside the measurement
        tracemalloc.start()
        try:
            rc = main(["lohe", "--config", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 3
        report = json.loads(capsys.readouterr().err.strip())
        assert report["field"] == field
        assert "above the cap" in report["message"]
        assert peak < 2 ** 20
        assert not out.exists()

    def test_lohe_size_cap_is_inclusive(self):
        # a product at the cap passes; above it, the larger factor's key fails
        assert cli._cap_cells("x", {"q": 2 ** 22, "d": 4}) is None
        with pytest.raises(ValidationError, match="q: x would hold 16777220 cells"):
            cli._cap_cells("x", {"q": 2 ** 22 + 1, "d": 4})

    def test_parser_is_reused_across_calls(self, tmp_path):
        # one parser serves every call; no flag of one call leaks into the next
        assert cli._parser() is cli._parser()
        seeded = run_to_file(tmp_path, ["plant", "--seed", "3"], "seeded.csv")
        run_to_file(tmp_path, ["lohe", "--repetitions", "2"], "lohe.csv")
        plain = run_to_file(tmp_path, ["plant"], "plain.csv")
        assert plain != seeded
        assert plain == run_to_file(tmp_path, ["plant", "--seed", "0"], "zero.csv")
        assert run_to_file(tmp_path, ["plant", "--seed", "3"], "again.csv") == seeded
        for argv in (["plant", "--bogus"], ["bogus"], ["plant", "--seed", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_plant_matrices_ignore_other_keys(self, tmp_path):
        cfg = tmp_path / "plant.json"
        cfg.write_text(json.dumps({"a1": [[0.5]], "a2": [[1.0]], "a3": [[1.0]],
                                   "a4": [[0.1]], "n": 1}))
        rc, data = run_to_file(tmp_path, ["plant", "--config", str(cfg)])
        assert rc == 0
        # closed loop 0.5 + 1.0 * 0.1 * 1.0: both ranks full, radius 0.6
        assert data.decode().split("\n")[1] == "0,1,1,1,1,1,0.6,1"

    def test_plant_krylov_stops_at_the_last_block(self, tmp_path):
        # n = 1 takes no A1 product: A1 A2 = 1e600 would overflow, and the
        # rank test never reads it
        cfg = tmp_path / "plant.json"
        cfg.write_text(json.dumps({"a1": [[1e300]], "a2": [[1e300]], "a3": [[1]],
                                   "a4": [[1]]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, data = run_to_file(tmp_path, ["plant", "--config", str(cfg)])
        assert rc == 0
        assert data.decode().split("\n")[1] == "0,1,1,1,1,1,2e+300,0"

    def test_stackelberg_drift_reaches_the_drawn_game(self, tmp_path):
        drift = np.zeros((6, 4))
        drift[:, 0], drift[:, 3] = -0.2, 0.2
        stages = [0, 1, 4]
        cfg = tmp_path / "drift.json"
        cfg.write_text(json.dumps({"drift": drift.tolist(), "stages": stages}))
        rc, data = run_to_file(tmp_path, ["stackelberg", "--config", str(cfg), "--seed", "0"])
        assert rc == 0
        # the game drawn as the CLI draws it, at seed 0, with the drift
        rng = np.random.default_rng(0)
        laws = tuple(rng.dirichlet(np.ones(4), size=6) for _ in range(8))
        inst = ns.StackelbergInstance(leader_laws=laws, payoffs=rng.normal(size=(6, 4)),
                                      leader_drift=drift)
        want = [(stage, *ns.stackelberg_solve(inst, stage)) for stage in stages]
        got = [line.split(",")[1:] for line in data.decode().split("\n")[1:-1]]
        assert [(int(s), int(li), int(a)) for s, li, a, _ in got] == [w[:3] for w in want]
        np.testing.assert_allclose([float(r[3]) for r in got], [w[3] for w in want],
                                   rtol=1e-11)
        # and the drift moves the answer away from the undrifted game's
        undrifted = ns.StackelbergInstance(leader_laws=laws, payoffs=inst.payoffs)
        assert ns.stackelberg_solve(undrifted, 4)[:2] != want[2][1:3]

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

    # finite game inputs whose sums overflow fail typed, not with a NaN
    # cell (exit 3 under output) or a false equilibrium (exit 0)
    @pytest.mark.parametrize("cmd,cfg,code,report", [
        ("stackelberg", {"laws": [[[0.5, 0.5]] * 2] * 2, "payoffs": [[1.0, 2.0], [3.0, 4.0]],
                         "drift": [[1e308, 1e308]] * 2, "stages": [0, 2]}, 4,
         ["NumericError", "stackelberg", "staged_laws: a drifted law row sums to inf at stage 2"]),
        ("stackelberg", {"laws": [[[0.5000000004, 0.5000000004]]],
                         "payoffs": [[1.7976931348623157e308] * 2]}, 4,
         ["NumericError", "stackelberg",
          "stackelberg_solve: an expected payoff overflows at stage 0"]),
        ("nash", {"weights": [[0.0] + [1e308, -1e308] * 8 + [1e308]] + [[0.0] * 18] * 17,
                  "k": 2}, 3,
         ["ValidationError", "KCutGame",
          "KCutGame: weights must be finite, as must their total absolute value"]),
    ])
    def test_game_overflow_fails_typed(self, tmp_path, capsys, cmd, cfg, code, report):
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(json.dumps(cfg))
        assert main([cmd, "--config", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0]) == dict(zip(["error", "field", "message"], report))
        assert not out.exists()

    def test_failed_solve_exit_4(self, tmp_path, capsys, monkeypatch):
        # one failed solve ends the whole run, as an arithmetic failure does
        # in every subcommand
        solve = solvers.greedy_solve

        def flaky(inst, u, **kw):
            if kw["relaxed"] and kw["seed"] == 3:
                raise FloatingPointError("overflow")
            return solve(inst, u, **kw)

        monkeypatch.setattr(solvers, "greedy_solve", flaky)
        cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        cfg.write_text(json.dumps({"n_seeds": 8, "budget": 15}))
        assert main(["convergence-cdf", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "FloatingPointError", "field": "convergence-cdf", "message": "overflow"}
        assert not out.exists()

    @pytest.mark.parametrize("cfg,floors", [
        # mode three's eps / 10 underflows to 0 in the first floor
        ({"eps": [5e-324, 0.01, 0.01], "mode": "three", "n_seeds": 20}, [0.0, 0.001, 0.001]),
        ({"eps": [0, 0.01, 0.01]}, [0.0, 0.01, 0.01]),
    ], ids=["underflowing_tight_floors", "zero_floor"])
    def test_floors_checked_before_any_solve(self, tmp_path, capsys, monkeypatch, cfg,
                                             floors):
        calls = []
        monkeypatch.setattr(solvers, "greedy_solve", lambda *a, **kw: calls.append(kw))
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(json.dumps(cfg))
        assert main(["convergence-cdf", "--config", str(path), "--out", str(out)]) == 3
        assert calls == []
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0]) == {
            "error": "ValidationError", "field": "eps",
            "message": f"eps: need three positive floors, got {floors}"}
        assert not out.exists()

    @pytest.mark.parametrize("grid", [
        # sigma^2 dt / dx^2 = 0.01 * 1 / 0.01 = 1 > 0.5
        {"x_min": -1, "x_max": 1, "n_x": 21, "n_t": 5, "dt": 1.0, "sigma": 0.1,
         "initial_density": [1 / 2.1] * 21},
        courant_grid(),
    ], ids=["diffusion", "courant"])
    def test_mfg_instability_names_grid(self, tmp_path, capsys, grid):
        cfg = tmp_path / "mfg.json"
        cfg.write_text(json.dumps({"grid": grid}))
        assert main(["mfg", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        report = json.loads(err[0])
        assert (report["error"], report["field"]) == ("ConfigurationError", "MfgGrid")
        assert "explicit scheme unstable" in report["message"]

    def test_top_level_array_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["plant", "--config", str(cfg)]) == 3
        err = json.loads(capsys.readouterr().err.strip().split("\n")[-1])
        assert err["error"] == "ValidationError"
        assert err["field"] == "config"

    def test_non_utf8_config_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.json"
        cfg.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["plant", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        assert json.loads(err[0])["field"] == "config"

    @pytest.mark.parametrize("cmd,text,key", [
        ("plant", '{"n": 2, "n": 3}', "n"),
        ("mfg", '{"grid": {"x_min": -1, "x_max": 1, "n_x": 11, "n_x": 12, "n_t": 5, '
                '"dt": 0.001, "sigma": 0.1, "initial_density": [1, 1]}}', "n_x"),
    ], ids=["top-level", "grid"])
    def test_repeated_key_exit_3(self, tmp_path, capsys, cmd, text, key):
        cfg = tmp_path / "twice.json"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1
        report = json.loads(err[0])
        assert report["field"] == "config"
        assert report["message"] == f"config: repeated key {key!r}"
        assert not out.exists()


class TestWriter:
    """`_write`'s text is `_fmt` of every cell, one line per row, whichever
    path a row takes."""

    floats = st.one_of(st.floats(allow_nan=False),
                       st.sampled_from([-0.0, np.inf, -np.inf, 5e-324, 1e300]))
    cells = st.one_of(
        floats,
        st.integers(), st.just(2 ** 70),
        floats.map(np.float64), st.floats(allow_nan=False, width=32).map(np.float32),
        st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
        st.booleans(), st.booleans().map(np.bool_),
        st.text(max_size=8),
        st.sampled_from(["nan", "banana", "inf", "-inf", "NaN", "nan,inf", ""]))

    specials = st.sampled_from([-0.0, np.inf, -np.inf, 5e-324])
    oracle_cells = st.one_of(
        st.text(max_size=8), st.sampled_from(["nan", "NaN", "inf", ""]),
        st.integers(), st.sampled_from([2 ** 70, -2 ** 70]), st.booleans(),
        st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint64]).flatmap(
            lambda t: st.integers(np.iinfo(t).min, np.iinfo(t).max).map(t)),
        st.booleans().map(np.bool_),
        st.one_of(st.floats(allow_nan=False), specials),
        st.one_of(st.floats(allow_nan=False), specials).map(np.float64),
        st.one_of(st.floats(allow_nan=False, width=32), specials).map(np.float32),
        st.sampled_from([float("nan"), np.float64("nan"), np.float32("nan")]))

    @settings(max_examples=300, deadline=None)
    @given(oracle_cells)
    def test_fmt_matches_oracle(self, v):
        if isinstance(v, str):
            expect = v
        elif isinstance(v, (int, np.integer, np.bool_)):
            expect = str(int(v))
        elif v != v:
            with pytest.raises(ValidationError) as exc:
                cli._fmt(v)
            assert str(exc.value) == "output: NaN cell with no tag"
            return
        else:
            expect = f"{float(v):.12g}"
        assert cli._fmt(v) == expect

    @staticmethod
    def written(rows):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write(None, "h", [rows])
        return out.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(cells, max_size=6), max_size=12))
    def test_matches_fmt_per_cell(self, rows):
        # each row twice, so rows of one cell-type tuple reuse its format
        rows = [tuple(r) for r in rows] + [list(r) for r in rows]
        expect = ["h"] + [",".join(["0", *map(cli._fmt, row)]) for row in rows]
        assert self.written(rows) == "\n".join(expect) + "\n"

    def test_exact_type_rows(self):
        rows = [(0, 3, -0.0, 2 ** 70, "nan"), (1, -4, 1 / 3, 5e-324, "ok"),
                (2, 0, np.inf, -np.inf, "info")]
        assert self.written(rows) == ("h\n0,0,3,-0,1180591620717411303424,nan\n"
                                      "0,1,-4,0.333333333333,4.94065645841e-324,ok\n"
                                      "0,2,0,inf,-inf,info\n")

    @pytest.mark.parametrize("nan", [float("nan"), np.float64("nan"), np.float32("nan")])
    def test_nan_cell_raises_and_writes_nothing(self, tmp_path, nan):
        out = tmp_path / "o.csv"
        for row in [(0, 1.5, nan), (0, "nan", nan), (nan,)]:
            with pytest.raises(ValidationError) as exc:
                cli._write(str(out), "h", [[(0, 1, 2.5, "x"), row]])
            assert str(exc.value) == "output: NaN cell with no tag"
            assert not out.exists()


class TestBlockWriter:
    """`_write` formats a chunk whose rows share one width and tuple of cell
    types as one block; its text is still `_fmt` of every cell, one line per
    row."""

    @staticmethod
    def expected(rows):
        return "h\n" + "".join(f"{','.join(['0', *map(cli._fmt, row)])}\n" for row in rows)

    cells = {float: st.one_of(st.floats(allow_nan=False),
                              st.sampled_from([-0.0, np.inf, -np.inf, 5e-324])),
             int: st.one_of(st.integers(), st.just(2 ** 70), st.just(-2 ** 70)),
             str: st.one_of(st.text(max_size=6),
                            st.sampled_from(["nan", "banana", "NaN", "", "a,b"]))}

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_long_runs_match_fmt_per_cell(self, data):
        # runs of up to 40 rows of one type tuple, the tuple switching between runs
        rows = []
        for kinds in data.draw(st.lists(st.lists(st.sampled_from([float, int, str]),
                                                 max_size=5), max_size=5)):
            n = data.draw(st.integers(0, 40))
            rows += [tuple(data.draw(self.cells[k]) for k in kinds) for _ in range(n)]
        assert TestWriter.written(rows) == self.expected(rows)

    def test_types_switching_mid_table(self):
        rows = ([(k, 0.5 * k, "ok") for k in range(30)] + [(30, 15, "ok")]
                + [(k, 0.5 * k, "ok") for k in range(31, 60)] + [[60, np.float64(30.0), "ok"]]
                + [(k,) for k in range(61, 70)] + [(70, True, "ok"), (), (), (71, -0.0, 2 ** 70)])
        assert TestWriter.written(rows) == self.expected(rows)
        # one cell type throughout and as many cells as rows of the first width,
        # but rows of three widths
        assert TestWriter.written([(1, 2), (3,), (4, 5, 6)]) == "h\n0,1,2\n0,3\n0,4,5,6\n"

    def test_special_cells_in_block_columns(self):
        rows = [(k, -0.0, np.inf, -np.inf, 2 ** 70, "x") for k in range(50)]
        text = TestWriter.written(rows)
        assert text == self.expected(rows)
        assert text.split("\n")[1] == "0,0,-0,inf,-inf,1180591620717411303424,x"

    @pytest.mark.parametrize("word", ["nan", "banana", "NaN"])
    def test_nan_text_inside_block(self, word):
        rows = [(k, k / 7, "ok") for k in range(40)]
        rows[17] = (17, 17 / 7, word)
        assert TestWriter.written(rows) == self.expected(rows)

    @pytest.mark.parametrize("at", [0, 25, 49])
    def test_nan_float_mid_block_raises_and_writes_nothing(self, tmp_path, at):
        out = tmp_path / "o.csv"
        rows = [(k, k / 3, "nan" if k == 10 else "ok") for k in range(50)]
        rows[at] = (at, float("nan"), "ok")
        with pytest.raises(ValidationError, match="output: NaN cell with no tag"):
            cli._write(str(out), "h", [rows])
        with pytest.raises(ValidationError, match="output: NaN cell with no tag"):
            cli._write(str(out), "h", [rows[:at], rows[at:]])
        assert not out.exists()

    def test_numbered_rows_lead_with_their_repetition(self):
        reps = [[(0.5, "a"), (1.5, "b")], [], [(2 ** 70, np.float64(0.25)), ()]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write(None, "rep,h", reps)
        assert out.getvalue().split("\n")[:-1] == [
            "rep,h", "0,0.5,a", "0,1.5,b", "2,1180591620717411303424,0.25", "2"]

    def test_mfg_repetitions_repeat_rep_zero(self, tmp_path):
        rc, data = run_to_file(tmp_path, ["mfg", "--repetitions", "3"])
        header, *lines = data.decode().split("\n")[:-1]
        assert rc == 0 and header == "rep,k,x,J,P_df"
        n = len(lines) // 3
        assert n == 101 * 100 and len(lines) == 3 * n
        rep0 = [line.split(",", 1) for line in lines[:n]]
        assert {lead for lead, _ in rep0} == {"0"}
        for rep in (1, 2):
            assert lines[rep * n:(rep + 1) * n] == [f"{rep},{rest}" for _, rest in rep0]


class TestFailureStderr:
    @pytest.mark.parametrize("cmd,cfg,code,error", [
        ("lohe", {"dt": 1e6}, 4, "NumericError"),
        ("mfg", {"grid": courant_grid()}, 3, "ConfigurationError"),
        ("mfg", {"grid": dict(courant_grid(), terminal_value=[float("nan")] * 21)}, 3,
         "ValidationError"),
        ("mfg", {"grid": dict(courant_grid(), p_bar="x")}, 3, "ValidationError"),
        # finite, but its gradient overflows to inf - inf; the value field is NaN
        ("mfg", {"grid": dict(courant_grid(), terminal_value=[1e308, -1e308] * 10 + [0.0])},
         4, "NumericError"),
        # finite matrices whose closed loop overflows; numpy's eigvals once raised
        ("plant", {"a1": [[0.5]], "a2": [[1e308]], "a3": [[1e308]], "a4": [[1.0]]}, 4,
         "NumericError"),
    ])
    def test_one_json_line(self, tmp_path, cmd, cfg, code, error):
        # numpy may warn before a run fails; the report stands alone
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        proc = subprocess.run([sys.executable, "-m", "mirrorwyner.cli", cmd,
                               "--config", str(path)],
                              env=cli_env(), capture_output=True, text=True)
        assert proc.returncode == code
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    def test_failed_write_reports_only_the_error(self, tmp_path, capsys):
        # mfg's status line is held back until the CSV is written
        out = tmp_path / "missing" / "o.csv"
        assert main(["mfg", "--out", str(out)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["field"] == "out"

    def test_finished_run_keeps_its_status_lines(self, capsys):
        assert main(["mfg", "--repetitions", "2", "--out", os.devnull]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [set(json.loads(line)) for line in lines] == \
            [{"converged", "sweeps", "final_residual"}] * 2

    def test_warnings_of_a_finished_run_are_kept(self, monkeypatch):
        def runner(values, seed):
            warnings.warn("kept", RuntimeWarning)
            return "a", [(1,)], 0

        monkeypatch.setitem(cli.SUBCOMMANDS, "plant", (runner, {}))
        with pytest.warns(RuntimeWarning, match="kept"):
            assert main(["plant", "--out", os.devnull]) == 0


def test_import_leaves_scipy_stats_unloaded():
    # nothing in the package imports scipy
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, mirrorwyner.cli; print('scipy.stats' in sys.modules)"],
        env=cli_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_convergence_cdf_run_leaves_scipy_unloaded(tmp_path):
    # the KS row is computed by prob.ks_one_sided, so a run never loads scipy
    cfg, out = tmp_path / "cfg.json", tmp_path / "o.csv"
    cfg.write_text(json.dumps({"n_seeds": 4, "budget": 8}))
    argv = ["convergence-cdf", "--config", str(cfg), "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, mirrorwyner.cli; rc = mirrorwyner.cli.main({argv!r}); "
         "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        env=cli_env(), capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0 []"
    assert ",summary,ks_dominates," in out.read_text()


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
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


# The `run` rows of configs/convergence_small.json at --seed 0: per variant,
# the outer passes of seeds 0-24, then their converged and feasible flags.
# Every speed-up of the greedy solver must keep the search path, so these
# stay as they are.
CONVERGENCE_SMALL_RUNS = {
    "relaxed": ([3, 4, 11, 8, 9, 8, 8, 13, 3, 4, 10, 10, 7, 4, 5, 7, 9, 4, 18, 8, 7, 10, 3, 7, 5],
                "1111110111111111011011111", "1111110111111111011011111"),
    "unrelaxed": ([13, 7, 8, 11, 12, 9, 9, 18, 13, 11, 30, 18, 11, 16, 18, 10, 16, 7, 14, 6,
                   17, 7, 16, 8, 9], "0" * 25, "0" * 25),
}


def test_convergence_small_search_path_pinned(tmp_path):
    rc, data = run_to_file(tmp_path, ["convergence-cdf", "--seed", "0", "--config",
                                      os.path.join(CONFIGS, "convergence_small.json")])
    assert rc == 0
    runs = [line.split(",") for line in data.decode().splitlines() if ",run," in line]
    for variant, (passes, converged, feasible) in CONVERGENCE_SMALL_RUNS.items():
        got = [r for r in runs if r[2] == variant]
        assert [int(r[3]) for r in got] == list(range(25))
        assert [int(r[4]) for r in got] == passes
        assert "".join(r[5] for r in got) == converged
        assert "".join(r[6] for r in got) == feasible
        assert {r[7] for r in got} == {"ok"}
    assert len(runs) == 50


# `convergence-cdf` on the benchmark's Q=4 instance (`wide_instance` at
# generator seed 0), 4 seeds at budget 2: every solve runs both passes and
# ends infeasible
CONVERGENCE_WIDE_CSV = """rep,record,variant,value,col_a,col_b,col_c,tag
0,run,relaxed,0,2,0,0,ok
0,run,relaxed,1,2,0,0,ok
0,run,relaxed,2,2,0,0,ok
0,run,relaxed,3,2,0,0,ok
0,run,unrelaxed,0,2,0,0,ok
0,run,unrelaxed,1,2,0,0,ok
0,run,unrelaxed,2,2,0,0,ok
0,run,unrelaxed,3,2,0,0,ok
0,cdf,,2,1,1,,
0,summary,ks_dominates,,0,1,1,
0,summary,completed,,4,4,8,
"""


def test_convergence_wide_output_pinned(tmp_path):
    cfg = {"n_seeds": 4, "budget": 2, "mode": "two",
           "instance": bench_module("workloads").wide_instance(np.random.default_rng(0))}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    rc, data = run_to_file(tmp_path, ["convergence-cdf", "--seed", "0", "--config", str(path)])
    assert rc == 0
    assert data.decode() == CONVERGENCE_WIDE_CSV


README =os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_lists_every_config_key():
    with open(README) as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    tables = [table for _, table in cli.SUBCOMMANDS.values()] + [cli.INSTANCE_KEYS,
                                                                  cli.GRID_KEYS]
    assert sorted({key for t in tables for key in t if f"`{key}`" not in section}) == []


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

    def test_convergence_cdf_n_seeds_agrees_with_seeds(self, tmp_path):
        outs = []
        for cfg in ({"seeds": [4, 2], "budget": 3}, {"seeds": [4, 2], "n_seeds": 2, "budget": 3}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            rc, data = run_to_file(tmp_path, ["convergence-cdf", "--config", str(path)])
            assert rc in (0, 1)
            outs.append(data)
        assert outs[0] == outs[1]
        runs = [l.split(",")[2:4] for l in outs[0].decode().split("\n") if ",run," in l]
        assert sorted(runs) == [[v, s] for v in ("relaxed", "unrelaxed") for s in ("2", "4")]

    def test_convergence_cdf_degenerate_budget(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        # budget 1: every run records exactly one pass, a degenerate CDF at 1
        cfg.write_text(json.dumps({"n_seeds": 4, "budget": 1}))
        rc, data = run_to_file(tmp_path, ["convergence-cdf", "--config", str(cfg)])
        lines = [l for l in data.decode().strip().split("\n") if ",run," in l]
        assert lines
        assert all(l.split(",")[4] == "1" for l in lines)

    @pytest.mark.parametrize("cfg", [
        # every slice accessible, so there is no inaccessible slice to average
        {"accessible": [0, 1, 2, 3], "inaccessible": []},
        # the one inaccessible slice carries no mass
        {"joint": np.stack([np.full((2, 2, 2), 0.125), np.zeros((2, 2, 2))], 2).tolist(),
         "accessible": [0], "inaccessible": [1]},
    ], ids=["no_inaccessible", "zero_mass_inaccessible"])
    def test_divergence_equivocation_of_no_mass(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, data = run_to_file(tmp_path, ["divergence", "--config", str(path)])
        assert rc == 0
        rows = {r.split(",")[1]: r.split(",")[3] for r in data.decode().strip().split("\n")[1:]}
        assert (rows["equivocation"], rows["feasible"]) == ("0", "1")

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


class TestKsDominatesRow:
    """The `ks_dominates` row and the exit code against the run rows: the
    statistic as an exact ECDF maximum, the p-values from scipy."""

    @staticmethod
    def check(tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc, data = run_to_file(tmp_path, ["convergence-cdf", "--config", str(path)])
        header, *lines = data.decode().strip().split("\n")
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        a, b = ([int(r["col_a"]) for r in rows
                 if (r["record"], r["variant"], r["tag"]) == ("run", name, "ok")]
                for name in ("relaxed", "unrelaxed"))
        gap = max(Fraction(sum(x <= t for x in a), len(a))
                  - Fraction(sum(x <= t for x in b), len(b)) for t in a + b)
        (ks,) = [r for r in rows if r["variant"] == "ks_dominates"]
        assert ks["col_a"] == f"{float(gap):.12g}"
        assert float(ks["col_b"]) == pytest.approx(
            stats.ks_2samp(a, b, alternative="greater").pvalue, rel=1e-11)
        assert rc == (1 if stats.ks_2samp(a, b, alternative="less").pvalue < 0.05 else 0)
        assert ks["col_c"] == str(1 - rc)
        return a, b, gap, rc

    def test_equal_sizes(self, tmp_path):
        a, b, _, rc = self.check(tmp_path, {"n_seeds": 8, "budget": 15})
        assert (len(a), len(b), rc) == (8, 8, 0)

    def test_slower_relaxed_runs_exit_1(self, tmp_path, monkeypatch):
        def solve(inst, u, budget, seed, relaxed, eps):
            return None, SimpleNamespace(iterations=seed + 10 * relaxed,
                                         converged=True, feasible=True)

        monkeypatch.setattr(solvers, "greedy_solve", solve)
        *_, rc = self.check(tmp_path, {"n_seeds": 8, "budget": 15})
        assert rc == 1


class TestChunkedWriter:
    """`_write` reads any iterable of rows CHUNK_ROWS at a time; the text
    does not depend on where the chunks fall."""

    @staticmethod
    def table(n, switch):
        # one type tuple up to row `switch`, another after it
        return ((k, k / 7, "ok") if k < switch else (k, k * 3, "ok") for k in range(n))

    def test_generator_run_straddles_chunk_boundaries(self):
        n, switch = 3 * cli.CHUNK_ROWS + 7, cli.CHUNK_ROWS + cli.CHUNK_ROWS // 2
        text = TestWriter.written(self.table(n, switch))
        assert text == TestBlockWriter.expected(list(self.table(n, switch)))
        assert text.count("\n") == n + 1

    @pytest.mark.parametrize("n", [0, 1, cli.CHUNK_ROWS - 1, cli.CHUNK_ROWS,
                                   cli.CHUNK_ROWS + 1, 2 * cli.CHUNK_ROWS])
    def test_generator_and_list_give_one_text(self, n):
        rows = list(self.table(n, n // 3))
        assert TestWriter.written(iter(rows)) == TestWriter.written(rows)
        assert TestWriter.written(tuple(rows)) == TestWriter.written(rows)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_text_is_independent_of_chunk_size(self, monkeypatch, chunk):
        rows = ([(k, k / 3, "nan" if k == 4 else "ok") for k in range(10)]
                + [(10, 5, "ok"), (11,), (), (12, np.float64(0.5), 2 ** 70)]
                + [(k, -0.0, np.inf) for k in range(13, 20)])
        expect = TestWriter.written(rows)
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        assert TestWriter.written(iter(rows)) == expect == TestBlockWriter.expected(rows)

    def test_nan_in_last_chunk_writes_no_file_and_no_stdout(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        n = 3 * cli.CHUNK_ROWS + 7

        def rows():
            for k, row in enumerate(self.table(n, 0)):
                yield (k, float("nan"), "ok") if k == n - 2 else row

        for path in (str(out), None):
            with pytest.raises(ValidationError, match="output: NaN cell with no tag"):
                cli._write(path, "h", [rows()])
            with pytest.raises(ValidationError, match="output: NaN cell with no tag"):
                cli._write(path, "rep,h", iter([self.table(5, 2), rows()]))
        assert capsys.readouterr().out == ""
        assert not out.exists()

    def test_numbered_generator_tables(self):
        n = cli.CHUNK_ROWS + 3
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write(None, "rep,h", (self.table(n, rep * 100) for rep in range(3)))
        lines = out.getvalue().split("\n")
        assert lines[0] == "rep,h" and lines[-1] == "" and len(lines) == 3 * n + 2
        for rep in range(3):
            expect = [",".join(map(cli._fmt, row)) for row in self.table(n, rep * 100)]
            assert lines[1 + rep * n:1 + (rep + 1) * n] == [f"{rep},{e}" for e in expect]


class TestMfgMemory:
    def test_default_run_peak_below_one_mib(self, tmp_path):
        # the rows come one time step at a time and are formatted a chunk at
        # a time, so the run's peak is the CSV text, not a tuple per row
        out = tmp_path / "o.csv"
        cli._parser()
        main(["mfg", "--out", str(out)])   # warm: first-call allocations are not the run's
        tracemalloc.start()
        try:
            rc = main(["mfg", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(out.read_bytes().splitlines()) == 101 * 100 + 1
        assert peak < 2 ** 20

    @pytest.mark.parametrize("size,key", [({"n_t": 10 ** 15}, "n_t"),
                                          ({"n_x": 10 ** 9}, "n_x")])
    def test_grid_cap_allocates_nothing(self, tmp_path, capsys, size, key):
        # n_t = 10**15 took a MemoryError from the grid's first n_t array
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(json.dumps({"grid": {**cli._default_mfg_payload(), **size}}))
        cli._parser()
        tracemalloc.start()
        try:
            rc = main(["mfg", "--config", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 3
        report = json.loads(capsys.readouterr().err.strip())
        assert report["field"] == "grid"
        assert report["message"].startswith(f"grid: {key}: the value and density fields")
        assert "above the cap" in report["message"]
        assert peak < 2 ** 20
        assert not out.exists()

    def test_grid_cap_is_inclusive(self):
        # at the cap the grid's own checks run (here: the density length);
        # counts below 1 are left to its axis check
        kw = dict(x_min=0.0, x_max=1.0, dt=0.1, sigma=0.1, initial_density=[1.0])
        with pytest.raises(ValidationError, match="initial density"):
            cli._mfg_grid(n_t=cli.CELL_CAP // 16, n_x=16, **kw)
        with pytest.raises(ValidationError, match="grid: n_t: .* above the cap"):
            cli._mfg_grid(n_t=cli.CELL_CAP // 16 + 1, n_x=16, **kw)
        with pytest.raises(ValidationError, match="bad axis parameters"):
            cli._mfg_grid(n_t=-10 ** 15, n_x=-10 ** 15, **kw)


# One value just past cli.CELL_CAP (2**24) for each drawn or swept size key,
# the other keys at their defaults, with the message of the capped array
PAST_CAP = {("plant", "n"): (4097, "the plant matrix"),
            ("nash", "n"): (4097, "the weights"),
            ("nash", "k"): (2 ** 21 + 1, "a sweep's best-response payoffs"),
            ("stackelberg", "n_laws"): (2 ** 24 // 24 + 1, "the leader laws"),
            ("stackelberg", "n_follower"): (2 ** 24 // 32 + 1, "the leader laws"),
            ("stackelberg", "n_leader_state"): (2 ** 24 // 48 + 1, "the leader laws"),
            ("mi-tradeoff", "n_samples"): (2 ** 24 // 289 + 1, "the leakage draws"),
            ("mi-tradeoff", "resolution"): (512, "the leakage draws"),
            ("mi-tradeoff", "grid_points"): (2 ** 24 + 1, "the leakage bounds"),
            ("secrecy-gap", "n_samples"): (2 ** 24 + 1, "the leakage draws"),
            ("secrecy-gap", "resolution"): (4096, "the mapping grid"),
            ("secrecy-gap", "grid_points"): (2 ** 24 + 1, "the power budgets"),
            ("convergence-cdf", "n_seeds"): (2 ** 23 + 1, "the run rows")}


class TestSizeCaps:
    @pytest.mark.parametrize("huge", [False, True], ids=["past_cap", "10**400"])
    @pytest.mark.parametrize("sub,key", list(PAST_CAP), ids=[f"{s}-{k}" for s, k in PAST_CAP])
    def test_size_key_past_cap_allocates_nothing(self, tmp_path, capsys, sub, key, huge):
        # at 10**400 each of these exited 1 with numpy's "Maximum allowed
        # dimension exceeded" (nash k ran on without end)
        value, what = PAST_CAP[sub, key]
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(json.dumps({key: 10 ** 400 if huge else value}))
        cli._parser()
        tracemalloc.start()
        try:
            rc = main([sub, "--config", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 3
        report = json.loads(capsys.readouterr().err.strip())
        assert report["field"] == key
        assert report["message"].startswith(f"{key}: {what} would hold ")
        assert report["message"].endswith(f"above the cap of {cli.CELL_CAP}")
        assert peak < 2 ** 20
        assert not out.exists()

    @pytest.mark.parametrize("n_seeds", [10 ** 12, 10 ** 30, 1e308],
                             ids=["10**12", "10**30", "1e308"])
    def test_n_seeds_past_cap_derives_no_seed(self, tmp_path, capsys, n_seeds):
        # each ran on without end: every seed of the range was derived and
        # checked for distinctness before the first solve
        path, out = tmp_path / "cfg.json", tmp_path / "o.csv"
        path.write_text(json.dumps({"n_seeds": n_seeds}))
        cli._parser()
        tracemalloc.start()
        try:
            rc = main(["convergence-cdf", "--config", str(path), "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 3
        report = json.loads(capsys.readouterr().err.strip())
        assert report["field"] == "n_seeds"
        assert report["message"] == (f"n_seeds: the run rows would hold {int(n_seeds) * 2} "
                                     f"cells, above the cap of {cli.CELL_CAP}")
        assert peak < 2 ** 20
        assert not out.exists()

    @pytest.mark.parametrize("reps", [10 ** 20, 2 ** 24 + 1], ids=["10**20", "2**24+1"])
    def test_repetitions_past_cap_run_nothing(self, tmp_path, capsys, reps):
        # 10**20 ran on without end: each repetition's rows are held until
        # the write, and none was ever written
        out = tmp_path / "o.csv"
        rc = main(["plant", "--repetitions", str(reps), "--out", str(out)])
        assert rc == 3
        report = json.loads(capsys.readouterr().err.strip())
        assert report["field"] == "repetitions"
        assert report["message"] == (f"repetitions: the repetitions' rows would hold {reps} "
                                     f"cells, above the cap of {cli.CELL_CAP}")
        assert not out.exists()


class TestDerivedKeys:
    """A key that another key fixes may be left out: the run then writes
    the bytes it writes with the agreeing value given."""

    @pytest.mark.parametrize("cmd,given,omitted", [
        ("convergence-cdf", {"n_seeds": 2, "budget": 3, "instance": REF_INSTANCE},
         {"n_seeds": 2, "budget": 3, "instance": _drop(REF_INSTANCE, "virtual_alphabet")}),
        ("mfg", {"grid": SMALL_GRID}, {"grid": _drop(SMALL_GRID, "n_x")}),
        ("divergence", {"accessible": [0, 1], "inaccessible": [2, 3]}, {"accessible": [0, 1]}),
        ("divergence", {"accessible": [0, 1], "inaccessible": [2, 3]}, {"inaccessible": [2, 3]}),
        ("divergence", {"accessible": [3], "inaccessible": [0, 1, 2]}, {"accessible": [3]}),
    ], ids=["virtual_alphabet", "n_x", "inaccessible", "accessible", "inaccessible_low"])
    def test_omitted_key_gives_the_same_bytes(self, tmp_path, cmd, given, omitted):
        runs = []
        for name, cfg in (("given", given), ("omitted", omitted)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(cfg))
            runs.append(run_to_file(tmp_path, [cmd, "--config", str(path)], f"{name}.csv"))
        assert runs[0][0] == 0
        assert runs[0] == runs[1]
