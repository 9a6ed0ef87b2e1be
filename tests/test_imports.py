"""What importing the package and running each CLI command loads.

The import checks run in a child interpreter, so that what this test
session has already imported does not count."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import specedge

COMMON = ["specedge.cli", "specedge.edges", "specedge.errors", "specedge.manifest",
          "specedge.population"]
FIG1 = {"n_dim": 500, "entries": [
    {"t": -2.0, "mult": 350}, {"t": 0.5, "mult": 300}, {"t": 6.0, "mult": 50}]}
SMALL = {"n_dim": 40, "entries": [{"t": 1.0, "mult": 60}]}


def loaded_after(code, cwd):
    """The specedge submodules, and concurrent.futures if loaded, once
    `code` has run in a fresh interpreter, with whatever `code` printed."""
    package_root = str(Path(specedge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    probe = (
        "import json, sys\n" + code + "\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('specedge.') or m == 'concurrent.futures')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    return json.loads(last), printed


def test_package_import_loads_no_submodule_and_binds_names_on_first_use(tmp_path):
    loaded, _ = loaded_after("import specedge", tmp_path)
    assert loaded == []
    loaded, printed = loaded_after(
        "import specedge\n"
        "print('find_edges' in vars(specedge))\n"
        "f = specedge.find_edges\n"
        "print(vars(specedge)['find_edges'] is f)\n"
        "specedge.tw.f1_cdf(0.0)\n", tmp_path)
    assert printed == ["False", "True"]
    # specedge.data is the package the TW table is read from.
    assert loaded == ["specedge.data", "specedge.edges", "specedge.errors",
                      "specedge.population", "specedge.tw"]


def test_cli_import_loads_only_the_layers_every_command_runs(tmp_path):
    loaded, _ = loaded_after("import specedge.cli", tmp_path)
    assert loaded == COMMON


@pytest.mark.parametrize("argv, present, absent", [
    (["edges", "pop.json", "--tau", "0.05", "--out", "e.json"],
     [], ["spectral", "simulate", "swaps", "twtest", "manova", "tw"]),
    (["density", "pop.json", "--grid", "50", "--out", "d.csv"],
     ["spectral"], ["simulate", "swaps", "twtest", "manova", "tw"]),
    (["simulate", "small.json", "--mode", "adherence", "--reps", "2",
      "--parallel-width", "1", "--out", "s.csv"],
     [], ["swaps"]),
], ids=["edges", "density", "simulate"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, present, absent):
    (tmp_path / "pop.json").write_text(json.dumps(FIG1))
    (tmp_path / "small.json").write_text(json.dumps(SMALL))
    loaded, _ = loaded_after(
        f"from specedge.cli import main\nassert main({argv!r}) == 0", tmp_path)
    assert set(COMMON) | {f"specedge.{name}" for name in present} <= set(loaded)
    assert "concurrent.futures" not in loaded
    assert not {f"specedge.{name}" for name in absent} & set(loaded)


def test_public_names_resolve_to_their_definitions():
    for name in specedge.__all__:
        obj = getattr(specedge, name)
        owner = importlib.import_module(obj.__module__)
        assert owner.__name__.startswith("specedge.")
        assert getattr(owner, name) is obj, name
    scope = {}
    exec("from specedge import *", scope)
    assert all(scope[name] is getattr(specedge, name) for name in specedge.__all__)
    assert set(specedge.__all__) <= set(dir(specedge))
    with pytest.raises(AttributeError, match="nope"):
        specedge.nope


def unused_imports(path, exported):
    """The names a module imports and never reads, `exported` aside."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read and name not in exported)


def test_no_module_imports_a_name_it_never_reads():
    # A name a module re-exports counts as read: its __all__, and for the
    # package its lazy export table and submodules.
    package = Path(specedge.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        stem = path.stem
        module = specedge if stem == "__init__" else importlib.import_module(f"specedge.{stem}")
        exported = set(getattr(module, "__all__", ()))
        if module is specedge:
            exported |= {n for names in specedge._EXPORTS.values() for n in names}
            exported |= specedge._SUBMODULES
        unused += unused_imports(path, exported)
    assert unused == []


def private_definitions(tree):
    """The private module-level functions, classes and constants a module
    defines, dunder names aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_helper_is_read_by_the_package():
    # A private name that only the tests read is API kept for them: each
    # must be read in its own module, imported by another one (which the
    # test above makes it read), or read as an attribute.
    package = Path(specedge.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    imported = {(node.module, alias.name) for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    unread = []
    for stem, tree in trees.items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{stem}.{name}" for name in private_definitions(tree)
                   if name not in loaded | attributes and (stem, name) not in imported]
    assert unread == []
