"""Every name a shadecalc module lists in __all__ exists, so deleting a
function cannot leave a stale export behind, and no private helper is
left without a caller."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import shadecalc

MODULES = ["shadecalc"] + [
    f"shadecalc.{m.name}" for m in pkgutil.iter_modules(shadecalc.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _referenced(node):
    """Every name, attribute and imported name referenced under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_private_helpers_have_a_caller():
    """Every module-level private function or class of the package is used
    somewhere in the package outside its own definition, so a refactor
    cannot leave an orphaned helper behind."""
    src = Path(shadecalc.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    total = Counter(name for tree in trees.values() for name in _referenced(tree))
    orphans = [
        f"{fname}:{node.name}"
        for fname, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and total[node.name] == Counter(_referenced(node))[node.name]
    ]
    assert orphans == []
