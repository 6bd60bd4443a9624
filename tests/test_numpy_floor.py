"""The package calls no numpy function newer than the numpy floor that
pyproject.toml declares. The tests run on one installed numpy only, so a
call added in a later release would pass them and still fail, with an
AttributeError, on every older numpy that the metadata allows."""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "mirrorwyner")

# numpy functions added after 1.24, with the release that added them
ADDED = {
    **dict.fromkeys(["acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "astype",
                     "bitwise_count", "bitwise_invert", "bitwise_left_shift",
                     "bitwise_right_shift", "concat", "isdtype", "matrix_transpose",
                     "permute_dims", "pow", "unique_all", "unique_counts",
                     "unique_inverse", "unique_values", "vecdot"], (2, 0)),
    **dict.fromkeys(["cumulative_prod", "cumulative_sum", "unstack"], (2, 1)),
    **dict.fromkeys(["matvec", "vecmat"], (2, 2)),
}


def declared_floor():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        major, minor = re.search(r'"numpy>=(\d+)\.(\d+)', fh.read()).groups()
    return int(major), int(minor)


def too_new(source, floor):
    """The `np.<name>` uses in `source` that numpy added after `floor`."""
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "np" and ADDED.get(node.attr, (0, 0)) > floor})


def test_no_numpy_call_newer_than_the_declared_floor():
    floor = declared_floor()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                assert too_new(fh.read(), floor) == [], name


def test_a_newer_call_is_flagged():
    source = "np.matmul(a, b)\nnp.matvec(a, b, out)\n"
    assert too_new(source, (1, 24)) == ["matvec"]
    assert too_new(source, (2, 2)) == []
