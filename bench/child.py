"""One measured process: imports the program, generates the workload's
inputs, drives `cli.main` in-process over them, then checks every output.
`run.py` starts it in a fresh interpreter and reads the JSON object it prints
as its last line.

Modes: "run" times the batch with only the op boundary wrapped, and times
the calibration kernel every 0.1 s from the first op on; "setup" stops at
the start of the first op and then times the kernel SETUP_SAMPLES times;
"trace" also wraps every layer and reports per-layer figures, whose times
are raw and exclude the kernel.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from typing import NamedTuple, Optional

import calibration
import checks
import tracer as tracing
import workloads

perf = time.perf_counter
SETUP_SAMPLES = 50   # kernel runs that calibrate a setup-only process


class SetupDone(BaseException):
    """Raised at the first op in setup mode; not an Exception, so no handler
    in the program swallows it."""


def load_program(root):
    sys.path.insert(0, os.path.join(root, "src"))
    from mirrorwyner import (divergence, equilibrium, mirror, nonstationary,  # noqa: F401
                             plant, prob, solvers)
    t0 = perf()
    from mirrorwyner import cli
    import_s = perf() - t0
    modules = {"solvers": solvers, "mirror": mirror, "prob": prob,
               "nonstationary": nonstationary, "divergence": divergence,
               "equilibrium": equilibrium, "plant": plant}
    return cli, modules, import_s


class Op(NamedTuple):
    """One timed op. `solve` is set on solver workloads: the instance, the
    returned assignment and trace, and the keyword arguments of the call."""

    start: float
    end: float
    round: int
    call: Optional[int]
    solve: Optional[tuple] = None


def run_plan(plan, cli_main, solvers, mode, sampler=None):
    """Drive the plan through `cli_main`. The sampler, if given, starts with
    the first op. Each call writes its CSV to `call.out`, so this process
    holds one call's output at a time. Returns the ops, the calls as
    (call, round, exit code) and the end of the timed region: the return of
    the last `cli.main` call."""
    ops, outputs = [], []
    where = {"round": 0, "call": 0}
    inner = solvers.greedy_solve

    def first_op(t0):
        if mode == "setup":
            raise SetupDone(t0)
        if sampler is not None and not ops:
            sampler.start()

    def op(inst, u, *args, **kwargs):
        t0 = perf()
        first_op(t0)
        asg, trace = result = inner(inst, u, *args, **kwargs)
        ops.append(Op(t0, perf(), where["round"], where["call"], (inst, asg, trace, kwargs)))
        return result

    if plan.op_kind == "solve":
        solvers.greedy_solve = op
    try:
        for r, calls in enumerate(plan.rounds):
            where["round"] = r
            t0 = perf()
            if plan.op_kind == "round":
                first_op(t0)
            for call in calls:
                outputs.append((call, r, cli_main(call.argv())))
                where["call"] += 1
            if plan.op_kind == "round":
                ops.append(Op(t0, perf(), r, None))
        t_end = perf()
    finally:
        solvers.greedy_solve = inner
        if sampler is not None:
            sampler.stop()
    return ops, outputs, t_end


def read_outputs(outputs):
    """(call, round, exit code, CSV text) for each call; a call that wrote
    no file reads as empty text."""
    texts = []
    for call, r, rc in outputs:
        try:
            with open(call.out) as fh:
                text = fh.read()
        except OSError:
            text = ""
        texts.append((call, r, rc, text))
    return texts


def check_outputs(plan, ops, outputs, mirror):
    """Per-op failure flags and the first few violation messages; `outputs`
    as `read_outputs` gives them."""
    failed = [False] * len(ops)
    messages = []
    bad_calls, bad_rounds, run_rows = set(), set(), {}
    for idx, (call, r, rc, text) in enumerate(outputs):
        errs = checks.check_call(call.subcommand, call.config, rc, text)
        if errs:
            bad_calls.add(idx)
            bad_rounds.add(r)
            messages.extend(f"{call.subcommand}: {e}" for e in errs)
        if call.subcommand == "convergence-cdf":
            try:
                run_rows[idx] = checks.run_rows(text)
            except (ValueError, IndexError):
                pass   # already reported by the CSV check
    for k, o in enumerate(ops):
        if plan.op_kind == "round":
            failed[k] = o.round in bad_rounds
            continue
        inst, asg, trace, kwargs = o.solve
        oracle = checks.condition_oracle(
            [j.table for j in inst.joints], [m.rows for m in asg.original],
            [m.rows for m in asg.virtual], inst.symbol_values)
        errs = checks.check_solve(oracle, mirror.condition_values(inst, asg))
        variant = "relaxed" if kwargs["relaxed"] else "unrelaxed"
        row = run_rows.get(o.call, {}).get((variant, kwargs["seed"]))
        errs += checks.check_run_row(
            row, oracle[0], (inst.gamma0, inst.gamma1, inst.gamma2, inst.gamma3),
            kwargs["relaxed"], kwargs["budget"], trace.iterations)
        messages.extend(f"greedy_solve op {k}: {e}" for e in errs)
        failed[k] = bool(errs) or o.call in bad_calls
    return failed, messages


def layer_metrics(tracer, import_s, csv_bytes):
    """Every per-layer figure the traced run can give, by name: `calls` and
    `self_s` of every span, plus the counters and the figures derived from
    them. `run.py` reports the ones BENCHMARK.json lists."""
    agg, cond_under_greedy = tracer.aggregate()
    out = {f"{name}.{key}": a[key] for name, a in agg.items() for key in ("calls", "self_s")}
    c = tracer.counters
    solves = out["solvers.greedy_solve.calls"]
    passes = c["solvers.greedy_solve.passes"]
    cond = agg["mirror.condition_values"]
    out.update({
        "cli.import_s": import_s,
        "cli.csv_bytes": csv_bytes,
        "solvers.greedy_solve.passes": passes,
        "solvers.cond_evals_per_solve": cond_under_greedy / solves if solves else 0.0,
        "solvers.improving_pass_ratio": c["solvers.improving_passes"] / passes if passes else 0.0,
        "mirror.condition_values.mean_us":
            1e6 * cond["total_s"] / cond["calls"] if cond["calls"] else 0.0,
        "mirror.exposure_columns": c["mirror.exposure_columns"],
        "mirror.boltzmann_posterior.raised": c["mirror.boltzmann_posterior.raised"],
        "nonstationary.mfg_solve.sweeps": c["nonstationary.mfg_solve.sweeps"],
        "nonstationary.lohe_integrate.steps": c["nonstationary.lohe_integrate.steps"],
    })
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    args = p.parse_args(argv)

    cli, modules, import_s = load_program(args.root)

    out_dir = os.path.join(args.root, ".bench_out")
    plan = workloads.make_plan(args.workload, args.seed, args.seconds)
    in_dir = os.path.join(out_dir, "calls", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    plan.write_configs(in_dir)
    tracer, cli_main = None, cli.main
    sampler = calibration.Sampler() if args.mode != "setup" else None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install(modules)
        cli_main = tracer.wrap("cli", cli.main)
        sample = calibration.sample

        def charged_sample():
            start, total, timed = sample()
            tracer.charge_kernel(total)
            return start, total, timed

        # the kernel's time counts in no layer's figures
        calibration.sample = charged_sample
    try:
        cpu0 = time.process_time()
        try:
            ops, outputs, t_end = run_plan(plan, cli_main, modules["solvers"], args.mode,
                                           sampler)
        except SetupDone as done:
            durations = [calibration.sample()[2] for _ in range(SETUP_SAMPLES)]
            print(json.dumps({"first_op_t": done.args[0],
                              "speed": calibration.speed(durations)}))
            return 0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
        csv_bytes = sum(os.path.getsize(call.out) for call, _, rc in outputs if rc == 0)
        failed, messages = check_outputs(plan, ops, read_outputs(outputs), modules["mirror"])
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)

    # kernel time inside an interval is not the program's
    speed = calibration.speed([d for *_, d in sampler.samples])
    t_first = ops[0].start
    wall_raw = t_end - t_first - sampler.within(t_first, t_end)
    lat_ms = [1e3 * (o.end - o.start - sampler.within(o.start, o.end)) for o in ops]
    result = {
        "first_op_t": t_first,
        "speed": speed,
        "wall_raw_s": wall_raw,
        "wall_s": wall_raw / speed,
        "op_p50_ms": statistics.median(lat_ms) / speed,
        "first_op_ms": lat_ms[0],
        "peak_rss_mb": rss_mb,
        "cpu_s": cpu_s,
        "attempted": len(ops),
        "failed": sum(failed),
        "violations": messages[:5],
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, import_s, csv_bytes)
        tracer.write(os.path.join(out_dir, "trace", f"{args.workload}-s{args.seed}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
