"""Paired benchmark runs of two source trees, parent and change.

    python tools/pairs.py --base DIR --tree DIR --workload W --pairs N \
        --seconds S --out FILE [--seed K]

DIR is the root of a checkout with its own `bench/run.py`. Pair i runs
`bench/run.py --workload W --seed K+i --seconds S --trace 0` once in each
tree, each in a fresh process started from that tree's root; the base runs
first in even pairs and the tree in odd ones, so a drift of the machine's
speed falls on both sides alike.

FILE gets one JSON object:
- `metrics`: per end-to-end metric, each side's median and quartiles over
  its completed runs, the change of the tree's median in % of the base's,
  and `tree_wins`, the number of pairs in which the tree is better (by the
  metric's direction in BENCHMARK.json; ties count for neither side) out
  of `pairs_compared`, the pairs in which both runs completed;
- `runs`: every run with its seed, side, order in its pair, exit code,
  metrics, and the raw wall time and speed factor of each measured process
  (the diagnostics lines `bench/run.py` writes to stderr);
- `failed`: the name of each run that exited nonzero, reported incorrect
  output, printed no result, or read NaN in a metric, with the reason.
  Such a run is kept in `runs` and left out of the statistics;
- `path_lengths` and `warnings`: a warning when the two roots' paths
  differ in length, which alone moves `peak_rss_mb`.

Exits 0 when every run completed, 1 when a run failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "tree")


def directions():
    """End-to-end metric name -> "lower" or "higher", the better direction,
    from this checkout's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def _json_number(value):
    """`value`, or None in place of a NaN or infinity, so the report is
    strict JSON."""
    return value if not isinstance(value, float) or math.isfinite(value) else None


def run_once(root, workload, seed, seconds):
    """One `bench/run.py` process in `root`: its record, and the reason it
    failed or None."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    record = {"exit": proc.returncode, "metrics": {}, "processes": []}
    for line in proc.stderr.splitlines():
        try:
            diag = json.loads(line)
        except ValueError:   # a plain message, such as "benchmark failed: ..."
            continue
        if isinstance(diag, dict) and "speed" in diag:
            record["processes"].append({k: _json_number(diag.get(k)) for k in
                                        ("speed", "wall_raw_s", "wall_s", "first_op_ms",
                                         "cpu_s", "attempted", "failed")})
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])   # reads a bare NaN as nan
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return record, f"exit {proc.returncode}: {tail[0]}"
    record["correct"] = result.get("correct")
    record["metrics"] = {k: _json_number(v["value"])
                         for k, v in result.get("metrics", {}).items()}
    nan = sorted(k for k, v in record["metrics"].items() if v is None)
    if nan:
        return record, f"NaN in {', '.join(nan)}"
    if result.get("correct") is not True:
        return record, (f"incorrect output: {result.get('failed')} of "
                        f"{result.get('attempted')} ops failed")
    return record, None


def summary(values):
    """The median and quartiles of `values` (at least one)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def compare(runs, better):
    """Per metric, both sides' summaries, the median change in % and the
    pairs the tree won, over the runs that completed."""
    done = {(r["pair"], r["side"]): r for r in runs if r["failure"] is None}
    pairs = sorted({p for p, _ in done if (p, "base") in done and (p, "tree") in done})
    names = sorted({m for r in done.values() for m in r["metrics"]})
    out = {}
    for name in names:
        sides = {s: [r["metrics"][name] for (_, side), r in sorted(done.items())
                     if side == s and name in r["metrics"]] for s in SIDES}
        if not all(sides.values()):
            continue
        sign = -1 if better.get(name, "lower") == "lower" else 1
        diffs = [sign * (done[p, "tree"]["metrics"][name] - done[p, "base"]["metrics"][name])
                 for p in pairs if name in done[p, "tree"]["metrics"]
                 and name in done[p, "base"]["metrics"]]
        base, tree = summary(sides["base"]), summary(sides["tree"])
        out[name] = {
            "better": better.get(name, "lower"), "base": base, "tree": tree,
            "change_pct": (100 * (tree["median"] - base["median"]) / base["median"]
                           if base["median"] else None),
            "tree_wins": sum(d > 0 for d in diffs), "base_wins": sum(d < 0 for d in diffs),
            "pairs_compared": len(diffs)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--tree", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0, help="the seed of pair 0")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"base": os.path.abspath(args.base), "tree": os.path.abspath(args.tree)}
    warnings = []
    if len(roots["base"]) != len(roots["tree"]):
        warnings.append(f"the roots' paths differ in length ({len(roots['base'])} and "
                        f"{len(roots['tree'])} characters), which alone moves peak_rss_mb")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    runs = []
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            record, failure = run_once(roots[side], args.workload, seed, args.seconds)
            runs.append({"pair": pair, "seed": seed, "side": side, "order": position,
                         **record, "failure": failure})
            shown = failure or ", ".join(f"{k} {v:.4g}" for k, v in record["metrics"].items())
            print(f"pair {pair} seed {seed} {side}: {shown}", file=sys.stderr)
    failed = [f"{r['side']} pair {r['pair']} seed {r['seed']}: {r['failure']}"
              for r in runs if r["failure"] is not None]
    report = {"workload": args.workload, "pairs": args.pairs, "seconds": args.seconds,
              "seeds": [args.seed + p for p in range(args.pairs)],
              "path_lengths": {side: len(root) for side, root in roots.items()},
              "warnings": warnings,
              "metrics": compare(runs, directions()), "failed": failed, "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, allow_nan=False)
        fh.write("\n")
    for name, m in report["metrics"].items():
        change = "n/a" if m["change_pct"] is None else f"{m['change_pct']:+.1f} %"
        print(f"{name}: base {m['base']['median']:.4g}, tree {m['tree']['median']:.4g} "
              f"({change}), tree better in {m['tree_wins']} of {m['pairs_compared']} pairs")
    for f in failed:
        print(f"failed: {f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
