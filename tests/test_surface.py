"""The package carries no top-level name that only the tests use."""

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
