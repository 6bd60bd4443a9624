"""Every function, class, method and module-level name under src/mirrorwyner
is named somewhere outside its own definition: elsewhere in src/, in the
acceptance suite or in the benchmark tracer's FUNCTIONS. A definition
that only its own unit tests name reaches no run, and this check lists it.

The check is static and by name alone, so it stays fast and needs no run of
the program. Only code names a definition: a name, an attribute, an import
or a keyword argument. A docstring, comment or string that cites it does
not."""

import ast
import collections
import os

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
