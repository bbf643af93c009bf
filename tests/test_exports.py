import ast
import glob
import os
import subprocess
import sys

import pytest

import fransim
from fransim import analysis, config, simulator


@pytest.mark.parametrize("module", [config, simulator, analysis], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _unused_imports(path):
    """The names that ``path`` imports and neither uses nor lists in
    ``__all__``, leaving out ``__future__`` imports and those whose line
    carries ``# noqa: F401``."""
    with open(path) as fh:
        source = fh.read()
    tree, lines = ast.parse(source), source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[node.lineno - 1] + lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return sorted((line, name) for name, line in imported.items() if name not in used)


SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(fransim.__file__), "*.py")))


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unused_imports(path):
    # No linter runs with the tests, so an import that a deletion leaves behind shows here.
    assert _unused_imports(path) == []


def test_runtime_imports_no_scipy():
    code = ("import sys, fransim, fransim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src_dir = os.path.dirname(os.path.dirname(fransim.__file__))
    env = {**os.environ, "PYTHONPATH": src_dir}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_name_is_used():
    # A deletion can leave behind a private helper, constant or class that
    # nothing reads any more, or a private function's parameter that its
    # body no longer reads.
    trees = {}
    for path in SOURCES:
        with open(path) as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread, unused_params = [], []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}:{name}" for name in names if _private(name) and name not in read]
            if isinstance(node, ast.FunctionDef) and _private(node.name):
                body = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                unused_params += [f"{module}:{node.name}({arg.arg})" for arg in params
                                  if arg.arg not in body]
    assert (unread, unused_params) == ([], [])


@pytest.mark.parametrize("path", [p for p in SOURCES if os.path.basename(p) != "cli.py"],
                         ids=os.path.basename)
def test_library_code_does_not_print(path):
    # Only the command line writes to the terminal; the library returns what
    # it found, so a caller decides what is shown.
    with open(path) as fh:
        tree = ast.parse(fh.read())
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "print"]
    assert calls == []
