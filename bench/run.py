"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout. Each measured process is a fresh
interpreter started with one thread everywhere (MIRRORWYNER_THREADS and the
BLAS/OpenMP thread counts set to 1). Prints one JSON object as its last line:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of
a traced run next to an untraced run of the same half-size batch. End-to-end
times are calibrated to the machine's usual speed (see calibration.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cdf_reference", "cdf_wide", "tradeoff_sweep", "field_dynamics")
SETUP_ONLY_RUNS = 2     # setup_s is the median of these and the measured run's
DEADLINE_S = 170.0      # every child is killed past this, counted from our start
THREAD_ENV = ("MIRRORWYNER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def per_layer_spec():
    """The per-layer metrics, with their units, that BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer"]


def child_env():
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(args, mode, seconds, started):
    """Start one measured interpreter; returns its result and the spawn time
    on the shared monotonic clock."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode]
    timeout = DEADLINE_S - (time.perf_counter() - started)
    if timeout <= 0:
        raise RuntimeError("out of time before the next measured process")
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1]), t_spawn


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "mirrorwyner", "cli.py")):
        print(f"no program source under {ROOT}/src/mirrorwyner", file=sys.stderr)
        return 2
    try:
        if args.trace:
            base, _ = run_child(args, "run", args.seconds / 2, started)
            traced, _ = run_child(args, "trace", args.seconds / 2, started)
            runs = [base, traced]
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in per_layer_spec()}
        else:
            setups = []
            for _ in range(SETUP_ONLY_RUNS):
                res, t_spawn = run_child(args, "setup", args.seconds, started)
                setups.append((res["first_op_t"] - t_spawn) / res["speed"])
            res, t_spawn = run_child(args, "run", args.seconds, started)
            setups.append((res["first_op_t"] - t_spawn) / res["speed"])
            runs = [res]
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": res["wall_s"], "unit": "s"},
                "op_p50_ms": {"value": res["op_p50_ms"], "unit": "ms"},
                "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for r in runs:
        info = {k: r[k] for k in ("attempted", "failed", "speed", "wall_raw_s", "wall_s",
                                  "first_op_ms", "cpu_s")}
        print(json.dumps({"workload": args.workload, "seed": args.seed, **info,
                          "violations": r["violations"]}), file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
