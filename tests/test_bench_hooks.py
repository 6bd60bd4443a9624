"""The benchmark's tracer (bench/tracer.py) rebinds package functions and
constructors by name, so every name it lists must exist: a deleted one would
break `bench/run.py --trace 1`."""

import pytest

from mirrorwyner import (divergence, equilibrium, mirror, nonstationary, plant, prob,
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
