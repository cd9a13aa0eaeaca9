"""The package carries no top-level name that only the tests use, and its
engines load none of the code that scores them."""

import ast
import pathlib

import statlight
from statlight import _EXPORTS

SRC = pathlib.Path(statlight.__file__).parent


def test_every_top_level_name_is_used_in_src():
    # a name counts as used when package code reads it (a name, an
    # attribute or an import) or exports it; comments and docstrings do not
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for names in _EXPORTS.values() for name in names}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    unused = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in used]
    assert unused == []


def _package_imports(tree) -> set:
    """The package modules that a module's relative imports name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


def test_engines_load_neither_the_oracle_nor_the_measurements():
    # the closed-form oracle and the measurements score the two engines, so
    # no module of an engine or of the config loads them, directly or
    # through another package module
    graph = {path.stem: _package_imports(ast.parse(path.read_text()))
             for path in SRC.glob("*.py")}
    for name in ("medium", "spectral", "perturber", "integrator", "config"):
        loaded, todo = set(), [name]
        while todo:
            new = graph[todo.pop()] - loaded
            loaded |= new
            todo += new
        assert not loaded & {"oracle", "diagnostics"}, (name, sorted(loaded))
