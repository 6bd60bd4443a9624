"""`tools/identity.py` on trees whose output is known: a copy of this tree
reads equal, and a copy that prints floats to 11 significant digits
differs on the case that prints floats and on no other."""

import importlib.util
import os
import shutil

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CASES = ["default/plant/seed0/reps1", "check/eps-zero"]


def identity_tool(monkeypatch):
    """tools/identity.py, loaded by file path, on the cases in CASES only."""
    path = os.path.join(ROOT, "tools", "identity.py")
    spec = importlib.util.spec_from_file_location("identity_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    build = module.build_cases
    monkeypatch.setattr(module, "build_cases",
                        lambda *a: [c for c in build(*a) if c[0] in CASES])
    return module


def copy_tree(directory):
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(directory, "src"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(directory)


def test_a_tree_equals_its_copy(tmp_path, capsys, monkeypatch):
    tool = identity_tool(monkeypatch)
    copy = copy_tree(tmp_path / "copy")
    assert tool.main(["--base", ROOT, "--tree", copy]) == 0
    assert capsys.readouterr().out == (
        "2 cases x 2 thread settings: 2 equal, 0 differ (0 not expected)\n")


def test_a_changed_float_format_differs(tmp_path, capsys, monkeypatch):
    tool = identity_tool(monkeypatch)
    mutant = copy_tree(tmp_path / "mutant")
    cli = os.path.join(mutant, "src", "mirrorwyner", "cli.py")
    with open(cli) as fh:
        text = fh.read()
    assert text.count('"%.12g"') == 1
    with open(cli, "w") as fh:
        fh.write(text.replace('"%.12g"', '"%.11g"'))
    argv = ["--base", ROOT, "--tree", mutant]
    assert tool.main(argv) == 1
    out = capsys.readouterr().out
    # plant prints a float on every row; the rejected config writes no CSV
    assert {line.split()[1] for line in out.splitlines() if line.startswith("DIFFERS")} == {
        "default/plant/seed0/reps1"}
    assert tool.main(argv + ["--expect", "default/plant/seed0/reps1"]) == 0
    assert tool.main(argv + ["--expect", "default/no/such/case"]) == 2
