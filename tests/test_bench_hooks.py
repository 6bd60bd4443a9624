"""The benchmark's tracer (bench/tracer.py) rebinds package functions and
constructors by name, so every name it lists must exist: a deleted one would
break `bench/run.py --trace 1`. And the runs must call the names it lists,
or their metrics count nothing."""

import pytest

from mirrorwyner import (cli, divergence, equilibrium, mirror, nonstationary, plant, prob,
                         solvers)

from conftest import bench_module

TRACER = bench_module("tracer")
MODULES = {"divergence": divergence, "equilibrium": equilibrium, "mirror": mirror,
           "nonstationary": nonstationary, "plant": plant, "prob": prob,
           "solvers": solvers}


@pytest.mark.parametrize("name,module,attr", TRACER.FUNCTIONS)
def test_traced_function_resolves(name, module, attr):
    assert callable(getattr(MODULES[module], attr, None))


@pytest.mark.parametrize("cls", TRACER.CONSTRUCTORS)
def test_traced_constructor_exists(cls):
    assert isinstance(getattr(prob, cls, None), type)


# Traced names that no benchmark workload reaches: the trust-region solver
# runs only in acceptance test_02, and nothing composes a Markov chain as a
# JointPmf3 on a run.
UNREACHED_BY_WORKLOADS = {"solvers.trust_region_solve", "prob.markov_compose"}


def test_traced_functions_are_the_executed_code(tmp_path):
    """Every traced function the workloads should reach is entered when one
    small plan of each workload runs through `cli.main`: a traced name that
    only wraps a copy of the code the runs call would read 0 calls."""
    workloads = bench_module("workloads")
    entered, restore = {}, []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            entered[key] = entered.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    try:
        for name, module, attr in TRACER.FUNCTIONS:
            mod = MODULES[module]
            orig = getattr(mod, attr)
            restore.append((mod, attr, orig))
            setattr(mod, attr, counting((name, attr), orig))
        for w in workloads.NOMINAL_OP_S:
            plan = workloads.make_plan(w, 0, 0.01)
            plan.write_configs(str(tmp_path / w))
            for call in plan.calls:
                assert cli.main(call.argv()) == 0, (w, call.subcommand)
    finally:
        for mod, attr, orig in reversed(restore):
            setattr(mod, attr, orig)
    expected = {(name, attr) for name, _, attr in TRACER.FUNCTIONS
                if name not in UNREACHED_BY_WORKLOADS}
    assert sorted(expected - set(entered)) == []
