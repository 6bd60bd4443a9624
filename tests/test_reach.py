"""Every function, class, method and module-level name under src/mirrorwyner
is named somewhere outside its own definition: elsewhere in src/, in the
acceptance suite or in the benchmark tracer's FUNCTIONS. A definition
that only its own unit tests name reaches no run, and this check lists it.

That check is static and by name alone, so it stays fast and needs no run
of the program. Only code names a definition: a name, an attribute, an
import or a keyword argument. A docstring, comment or string that cites it
does not.

A dynamic check follows: every function and method under src/mirrorwyner
is called by a run of the golden CSV cases (`tests/test_golden_csv.py`),
the package's import included, unless CALL_EXEMPT names it with its
reason."""

import ast
import collections
import json
import os
import subprocess
import sys

from conftest import cli_env

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _read(path):
    with open(path) as fh:
        return fh.read()


def _py_files(*parts):
    directory = os.path.join(ROOT, *parts)
    return sorted(os.path.join(directory, f) for f in os.listdir(directory)
                  if f.endswith(".py"))


def tracer_names():
    """The attribute names in bench/tracer.py's FUNCTIONS, read without
    importing it."""
    tree = ast.parse(_read(os.path.join(ROOT, "bench", "tracer.py")))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "FUNCTIONS" for t in node.targets):
            return {attr for _, _, attr in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracer.py defines no FUNCTIONS")


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree, prefix=""):
    """(qualified name, name, first line, last line) of every function,
    class and method in `tree`, nested ones included, and of every name a
    module-level statement assigns; dunders left out."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _dunder(node.name):
                yield prefix + node.name, node.name, node.lineno, node.end_lineno
            yield from definitions(node, f"{prefix}{node.name}.")
            continue
        if not prefix and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                            and not _dunder(name.id)):
                        yield name.id, name.id, node.lineno, node.end_lineno
        yield from definitions(node, prefix)


def uses(tree):
    """Name -> the lines where code in `tree` uses it: as an `ast.Name`, an
    attribute, an imported name or its alias, or a keyword argument."""
    found = collections.defaultdict(list)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".") + [node.asname]
        elif isinstance(node, ast.keyword):
            names = [node.arg]
        else:
            continue
        for name in filter(None, names):
            found[name].append(node.end_lineno)
    return found


def unreached(sources, others, names=frozenset()):
    """The qualified names of the definitions in `sources` (module name ->
    code) that no code uses outside their own lines: not the rest of their
    module, another module, nor any of the `others` codes. A name in
    `names` counts as used."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {module: uses(tree) for module, tree in trees.items()}
    elsewhere = set(names).union(*(uses(ast.parse(text)) for text in others))
    missing = []
    for module, tree in trees.items():
        for qualname, name, first, last in definitions(tree):
            if not (name in elsewhere
                    or any(name in u for m, u in used.items() if m != module)
                    or any(not first <= line <= last for line in used[module][name])):
                missing.append(f"{module}.{qualname}")
    return missing


def test_every_definition_is_named_outside_itself():
    sources = {os.path.basename(p)[:-3]: _read(p) for p in _py_files("src", "mirrorwyner")}
    others = [_read(os.path.join(ROOT, "tests", "test_acceptance.py"))]
    assert unreached(sources, others, tracer_names()) == []


def test_a_name_used_only_inside_its_own_definition_is_flagged():
    sources = {"a": "def walk(n):\n    return walk(n - 1) if n else 0\n\n\n"
                    "class Box:\n    size = 3\n\n    def open(self):\n        return self\n\n\n"
                    "LIMIT, _ROWS = 3, (LIMIT,)\n",
               "b": "from a import Box\n\n__all__ = ['Box']\n\n\ndef __dunder__():\n"
                    "    width = 2\n    return width\n"}
    # a class attribute or a local is not module-level; LIMIT's own line
    # does not count as naming it
    assert unreached(sources, []) == ["a.walk", "a.Box.open", "a.LIMIT", "a._ROWS"]
    assert unreached(sources, ["Box().open()", "walk", "LIMIT", "_ROWS"]) == []


def test_a_name_cited_only_in_prose_is_flagged():
    sources = {"a": 'def cited():\n    return 1\n\n\n'
                    'def user():\n    """Leans on `a.cited`."""\n'
                    '    # cited() would do\n    return "cited"\n'}
    assert unreached(sources, ["user()"]) == ["a.cited"]
    assert unreached(sources, ["user()"], {"cited"}) == []
    assert unreached(sources, ["user(key=1)"]) == ["a.cited"]
    assert unreached(sources, ["user(cited=1)"]) == []


_ACCEPTANCE_ONLY = "; no subcommand runs it, only the acceptance suite"
# qualified name (a function, or a class for all its methods) -> why no
# golden case calls it
CALL_EXEMPT = {
    **{name: "the trust-region family" + _ACCEPTANCE_ONLY
       for name in ("solvers.TrustRegionConfig", "solvers.ObjectiveFn", "solvers._dogleg_step",
                    "solvers.trust_region_solve")},
    **{name: "the joint of the chain S -> X -> Y" + _ACCEPTANCE_ONLY
       for name in ("prob.markov_compose", "prob.JointPmf3")},
    "mirror.chance_relax": "the chain step whose form is P1 itself" + _ACCEPTANCE_ONLY,
    "mirror.ConstraintSet.constraint_holds": "one bound's test on a value table; the "
    "solver tests whole tables with `holds`" + _ACCEPTANCE_ONLY,
    "mirror.MirrorGameInstance.source": "P(S) as a Pmf; the kernels read the joints"
    + _ACCEPTANCE_ONLY,
}

# Runs every golden case in one interpreter and prints the (file, first
# line, name) of each code object that ran. The profile is on while the
# package is imported, since the CLI's defaults call into it then, and off
# while the golden module builds its configs.
PROBE = """
import json, os, sys, tempfile
codes = set()
profile = lambda frame, event, arg: codes.add(frame.f_code)
sys.setprofile(profile)
from mirrorwyner.cli import main
sys.setprofile(None)
import test_golden_csv as golden
sys.setprofile(profile)
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "o.csv")
    for argv in golden.GOLDEN:
        main([*argv, "--seed", "0", "--out", out])
    for i, case in enumerate(golden.GOLDEN_CONFIGS):
        main([*golden.config_argv(tmp, case, i), "--out", out])
sys.setprofile(None)
print(json.dumps([(c.co_filename, c.co_firstlineno, c.co_name) for c in codes]))
"""


def functions(tree, prefix=""):
    """(qualified name, name, first line) of every function and method in
    `tree`, nested ones included. The first line is that of the first
    decorator, where there is one, as in the function's code object."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, node.name, first
            yield from functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        else:
            yield from functions(node, prefix)


def golden_calls():
    """(real path, first line, name) of every code object that the golden
    cases run."""
    env = cli_env()
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True)
    return {(os.path.realpath(f), line, name) for f, line, name in json.loads(proc.stdout)}


def _covers(exempt, qualname):
    return qualname == exempt or qualname.startswith(exempt + ".")


def test_every_function_is_called_by_a_golden_case():
    called = golden_calls()
    uncalled = []
    for path in _py_files("src", "mirrorwyner"):
        module = os.path.basename(path)[:-3]
        for qualname, name, first in functions(ast.parse(_read(path))):
            if (os.path.realpath(path), first, name) not in called:
                uncalled.append(f"{module}.{qualname}")
    assert [q for q in uncalled if not any(_covers(e, q) for e in CALL_EXEMPT)] == []
    # an exemption that names nothing uncalled is stale
    assert [e for e in CALL_EXEMPT if not any(_covers(e, q) for q in uncalled)] == []
