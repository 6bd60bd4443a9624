"""Every test that README.md or a file under src/ cites as
`tests/<file>.py::<name>` (a class, a function, or a class's method as
`Class::method`) exists in that file, found by parsing it; and every code
name cited as `module.name` (or `module.Class.name`) for a module of the
package exists in it, found with `getattr`. A test or a function renamed or
deleted cannot leave its citation behind."""

import ast
import functools
import importlib
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SRC = os.path.join(ROOT, "src", "mirrorwyner")
CITATION = re.compile(r"tests/(\w+\.py)((?:::\w+)+)")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")
# a code span that opens with a package module's name and an attribute
CODE_NAME = re.compile(r"`(%s)((?:\.\w+)+)" % "|".join(MODULES))


@functools.lru_cache(maxsize=None)
def _module_body(name):
    path = os.path.join(ROOT, "tests", name)
    if not os.path.isfile(path):
        return ()
    with open(path, encoding="utf-8") as fh:
        return tuple(ast.parse(fh.read(), filename=path).body)


def unresolved(text):
    """The citations in `text` that name no test class or function."""
    missing = []
    for name, chain in CITATION.findall(text):
        scope = _module_body(name)
        for part in chain.split("::")[1:]:
            node = next((n for n in scope if isinstance(n, DEFINITIONS) and n.name == part),
                        None)
            if node is None:
                missing.append(f"tests/{name}{chain}")
                break
            scope = node.body
    return missing


def unresolved_names(text):
    """The `module.name` citations in `text` that name nothing in their
    module, each attribute looked up in the one before it."""
    missing = []
    for module, chain in CODE_NAME.findall(text):
        obj = importlib.import_module(f"mirrorwyner.{module}")
        for part in chain.split(".")[1:]:
            if not hasattr(obj, part):
                missing.append(module + chain)
                break
            obj = getattr(obj, part)
    return missing


def cited_texts():
    paths = [os.path.join(ROOT, "README.md")] + [
        os.path.join(SRC, f) for f in sorted(os.listdir(SRC)) if f.endswith(".py")]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield os.path.relpath(path, ROOT), fh.read()


def test_every_cited_test_exists():
    texts = dict(cited_texts())
    assert sum(len(CITATION.findall(t)) for t in texts.values()) >= 5
    assert {path: unresolved(t) for path, t in texts.items() if unresolved(t)} == {}


def test_a_stale_citation_is_caught():
    text = ("`tests/test_mirror.py::TestExposureBound`, "
            "`tests/test_mirror.py::TestExposureBound::test_gone`, "
            "`tests/test_mirror.py::test_gone`, `tests/test_gone.py::test_x`")
    assert unresolved(text) == ["tests/test_mirror.py::TestExposureBound::test_gone",
                                "tests/test_mirror.py::test_gone",
                                "tests/test_gone.py::test_x"]


def test_every_cited_code_name_exists():
    texts = dict(cited_texts())
    assert sum(len(CODE_NAME.findall(t)) for t in texts.values()) >= 5
    assert {path: unresolved_names(t) for path, t in texts.items()
            if unresolved_names(t)} == {}


def test_a_stale_code_name_is_caught():
    text = ("`mirror._kernel`, `mirror._gone(...)`, `prob.Pmf.bernoulli`, "
            "`prob.Pmf.gone`, `cli.CELL_CAP`, `np.gone`, `gone.x`")
    assert unresolved_names(text) == ["mirror._gone", "prob.Pmf.gone"]
