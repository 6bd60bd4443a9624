"""Byte identity of the CLI's output between two source trees.

    python tools/identity.py --base DIR --tree DIR [--expect CASE ...] [--plans]

DIR is the root of a checkout; the tool imports the package from DIR/src.
The case list is built from this checkout:
- `configs/<file>`: each example config at `--seed 0`;
- `default/<subcommand>/seed<s>/reps<r>`: each subcommand's default config
  at seeds 0-4 with `--repetitions` 1 and 2;
- `golden/<i>/<subcommand>`: the i-th entry of `GOLDEN_CONFIGS` in
  `tests/test_golden_csv.py`;
- `check/<name>`: configs that a check must reject, with exit 3;
- with `--plans`, `plan/<workload>/seed<s>/<k>`: the k-th `cli.main` call of
  `bench/workloads.make_plan(workload, s, 20)` for each workload at seeds
  0-4.

Each tree runs every case in-process through `cli.main`, in one subprocess
of its own per thread setting: `OPENBLAS_NUM_THREADS=1`, then the variable
unset, the library's default. Per case it records the sha256 of the CSV
(none when no file is written), the exit code and stderr, with the tree's
own path replaced, so a warning's location compares equal. Both trees read
the same config files and write to the same output path.

Prints a line per case and thread setting that differs, and a summary.
Exits 0 when every case is equal or each case that differs is named by
`--expect`, 1 when another case differs, and 2 when an `--expect` names no
case.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = {"threads=1": "1", "threads=default": None}
SEEDS = range(5)
REPETITIONS = (1, 2)
PLAN_SECONDS = 20
# Each floor check runs before any solve: the tight floors eps / 10 of
# mode three underflow to 0 here, and a zero floor is rejected as given.
CHECKS = {
    "eps-underflow": ("convergence-cdf",
                      {"eps": [5e-324, 0.01, 0.01], "mode": "three", "n_seeds": 20}),
    "eps-zero": ("convergence-cdf", {"eps": [0, 0.01, 0.01]}),
}


def _import_from(*parts):
    path = os.path.join(ROOT, *parts)
    if path not in sys.path:
        sys.path.insert(0, path)


def _write_json(path, config):
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def build_cases(workdir, out, plans=False):
    """The case list as (name, argv) pairs, every argv writing to `out`;
    the config files that the argvs name are written under `workdir`."""
    _import_from("src")
    _import_from("tests")
    from mirrorwyner import cli
    import test_golden_csv as golden
    from conftest import CONFIG_SUBCOMMANDS

    configs = os.path.join(ROOT, "configs")
    cases = []
    for name in sorted(f for f in os.listdir(configs) if f.endswith(".json")):
        sub = next(c for prefix, c in CONFIG_SUBCOMMANDS.items() if name.startswith(prefix))
        cases.append((f"configs/{name}",
                      [sub, "--config", os.path.join(configs, name), "--seed", "0"]))
    for sub in cli.SUBCOMMANDS:
        for seed in SEEDS:
            for reps in REPETITIONS:
                cases.append((f"default/{sub}/seed{seed}/reps{reps}",
                              [sub, "--seed", str(seed), "--repetitions", str(reps)]))
    for i, case in enumerate(golden.GOLDEN_CONFIGS):
        cases.append((f"golden/{i:02d}/{case[0]}", golden.config_argv(workdir, case, i)))
    for name, (sub, config) in CHECKS.items():
        path = _write_json(os.path.join(workdir, f"check-{name}.json"), config)
        cases.append((f"check/{name}", [sub, "--config", path]))
    if plans:
        _import_from("bench")
        import workloads
        for w in workloads.NOMINAL_OP_S:
            for s in SEEDS:
                plan = workloads.make_plan(w, s, PLAN_SECONDS)
                plan.write_configs(os.path.join(workdir, f"plan-{w}-{s}"))
                for k, call in enumerate(plan.calls):
                    cases.append((f"plan/{w}/seed{s}/{k:02d}", call.argv()[:-2]))
    return [(name, argv + ["--out", out]) for name, argv in cases]


def run_cases(src, cases):
    """Run the cases through the package under `src` in this process:
    name -> [sha256 of the CSV or None, exit code, stderr]."""
    sys.path.insert(0, src)
    from mirrorwyner import cli

    here = os.path.dirname(cli.__file__)
    if os.path.realpath(here) != os.path.realpath(os.path.join(src, "mirrorwyner")):
        raise SystemExit(f"imported mirrorwyner from {here}, not from {src}")
    results = {}
    for name, argv in cases:
        out = argv[-1]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse's usage errors
                code = exc.code
        digest = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            os.remove(out)
        results[name] = [digest, code, err.getvalue().replace(here, "<src>")]
    return results


def run_tree(tree, cases, threads, workdir):
    """The results of `cases` in a fresh interpreter on tree/src."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    cases_path = _write_json(os.path.join(workdir, "cases.json"), cases)
    results_path = os.path.join(workdir, "results.json")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                    os.path.join(os.path.abspath(tree), "src"), cases_path, results_path],
                   env=env, cwd=workdir, check=True)
    with open(results_path) as fh:
        return json.load(fh)


def describe(a, b):
    fields = ("csv", "exit", "stderr")
    return ", ".join(f"{f} {x!r:.80} -> {y!r:.80}" for f, x, y in zip(fields, a, b) if x != y)


def compare(base, tree, expect=(), plans=False):
    """Print each differing case and a summary; return the exit code."""
    with tempfile.TemporaryDirectory() as workdir:
        cases = build_cases(workdir, os.path.join(workdir, "out.csv"), plans)
        unknown = sorted(set(expect) - {name for name, _ in cases})
        if unknown:
            print(f"--expect names no case: {' '.join(unknown)}")
            return 2
        differing = set()
        for label, threads in THREADS.items():
            got_base = run_tree(base, cases, threads, workdir)
            got_tree = run_tree(tree, cases, threads, workdir)
            for name, _ in cases:
                if got_base[name] != got_tree[name]:
                    differing.add(name)
                    mark = "expected" if name in expect else "DIFFERS"
                    print(f"{mark} {name} [{label}]: {describe(got_base[name], got_tree[name])}")
    unexpected = differing - set(expect)
    print(f"{len(cases)} cases x {len(THREADS)} thread settings: "
          f"{len(cases) - len(differing)} equal, {len(differing)} differ "
          f"({len(unexpected)} not expected)")
    for name in sorted(set(expect) - differing):
        print(f"expected to differ, but equal: {name}")
    return 1 if unexpected else 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--child"]:
        src, cases_path, results_path = argv[1:]
        with open(cases_path) as fh:
            cases = json.load(fh)
        _write_json(results_path, run_cases(src, cases))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--tree", required=True)
    parser.add_argument("--expect", nargs="*", default=[])
    parser.add_argument("--plans", action="store_true")
    args = parser.parse_args(argv)
    return compare(args.base, args.tree, args.expect, args.plans)


if __name__ == "__main__":
    sys.exit(main())
