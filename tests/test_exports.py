"""Every name a shadecalc module lists in __all__ exists, so deleting a
function cannot leave a stale export behind, no private helper and no
public function or method is left without a caller, no function keeps
a parameter it never reads, and no module constant stays unread."""

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


# parameters kept on purpose, each with its reason
UNREAD_ALLOWED = {
    # the benchmark ledger wraps it by name with six positional arguments
    "chords.py:_pair_and_polish.target_radius",
}


def _functions(node, prefix=""):
    """(qualified name, node) of every function under node, methods and
    nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def test_parameters_are_read():
    """Every parameter of every function of the package is read in its
    body, so a signature cannot keep an argument nothing uses."""
    src = Path(shadecalc.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text())):
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{name}.{p}" for p in params if p not in read]
    assert sorted(set(unread) - UNREAD_ALLOWED) == []


# public functions and methods no engine or benchmark code calls, each
# with its reason
UNCALLED_ALLOWED = {
    # the library's validation report, a copy the caller may change; the
    # CLI reads the cached report, and the benchmark ledger wraps this
    # method by name (span curves.validate)
    "curves.py:CurveModel.validate",
}


def _public_defs(tree):
    """(qualified name, node) of every public module-level function and
    every public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{m.name}", m) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node


def test_public_names_have_a_caller():
    """Every public function and method of the package is referenced in
    the package or the benchmark outside its own definition, or exported
    in its module's __all__, so code whose last caller goes cannot stay
    behind."""
    src = Path(shadecalc.__file__).parent
    paths = sorted(src.glob("*.py")) + sorted((src.parents[1] / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in paths}
    total = Counter(name for tree in trees.values() for name in _referenced(tree))
    uncalled = []
    for path in sorted(src.glob("*.py")):
        exported = getattr(importlib.import_module(f"shadecalc.{path.stem}"), "__all__", ())
        for qualname, fn in _public_defs(trees[path]):
            if qualname not in exported and total[fn.name] == Counter(_referenced(fn))[fn.name]:
                uncalled.append(f"{path.name}:{qualname}")
    assert sorted(uncalled) == sorted(UNCALLED_ALLOWED)


def _reads(tree):
    """Every name read under tree: loaded names, attributes and imported
    names, but not the targets of assignments."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_module_constants_are_read():
    """Every module-level name a package module assigns is read somewhere
    in the package or the benchmark, so a constant whose last reader goes
    cannot stay behind."""
    src = Path(shadecalc.__file__).parent
    paths = sorted(src.glob("*.py")) + sorted((src.parents[1] / "perfbench").glob("*.py"))
    read = Counter(name for p in paths for name in _reads(ast.parse(p.read_text())))
    unread = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            unread += [f"{path.name}:{t.id}" for target in targets for t in ast.walk(target)
                       if isinstance(t, ast.Name) and not t.id.startswith("__")
                       and not read[t.id]]
    assert unread == []
