"""Source hygiene: every name a greenball module imports is used.

A name counts as used when the module refers to it anywhere in its code
(attribute chains such as ``np.linalg`` start at a plain name) or lists it in
``__all__``.  Standard-library ``ast`` only, so no linter is needed.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "greenball"


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | _exported(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in kept)


def test_scanner_flags_unused_and_keeps_used_names():
    source = ("from math import comb, pi\nimport numpy as np\n"
              "from .x import Exported\n__all__ = ['Exported']\n"
              "def f():\n    return np.sqrt(pi)\n")
    assert unused_imports(source) == [(1, "comb")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join(f"{path.name}:{line} imports {name}"
                                 for line, name in unused)
