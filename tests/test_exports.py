"""Every name a shadecalc module lists in __all__ exists, so deleting a
function cannot leave a stale export behind."""

import importlib
import pkgutil

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
