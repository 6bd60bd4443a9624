"""Steadiness check: runs the benchmark once per seed on each workload and
prints, per end-to-end metric, the median, the quartiles and the spread
(distance between the quartiles as a share of the median), which must stay
within the metric's bound in BENCHMARK.json.

    python3 bench/steadiness.py --seeds 0-9 [--workloads cdf_reference ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# every raw result line, with the measured processes' diagnostics from
# standard error, is appended here
LOG = os.path.join(ROOT, ".bench_out", "steadiness.jsonl")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.dirname(LOG), exist_ok=True)
    for workload in args.workloads:
        values, shares = {}, set()
        for seed in args.seeds:
            cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                           "--seconds", str(spec["run_seconds"]),
                                           "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            line = proc.stdout.strip().split("\n")[-1]
            with open(LOG, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": line, "runs": proc.stderr}) + "\n")
            res = json.loads(line)
            shares.add((res["failed"], res["attempted"], res["correct"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(json.dumps({"workload": workload, "metric": name, "median": med,
                              "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                              "bound": bounds.get(name), "values": vals}))
        print(json.dumps({"workload": workload, "failed_attempted_correct": sorted(shares)}))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
