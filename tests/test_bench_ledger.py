"""The traced benchmark (perfbench/run.py --trace 1) wraps engine functions
by module and attribute name, so renaming or deleting one of them breaks
the benchmark, not the engine.  This test loads the ledger from its file,
without editing it, and checks that every name it wraps still resolves
and that uninstall() puts every original binding back."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"


def _load_ledger(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_ledger", LEDGER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(objs):
    return {(id(o), k): v for o in objs for k, v in vars(o).items()}


def test_wrapped_names_resolve_and_are_restored(monkeypatch):
    ledger = _load_ledger(monkeypatch)
    mods = {m: importlib.import_module(f"shadecalc.{m}") for m in ledger.MODULES}

    def resolve(owner, attr):
        obj = mods[owner]
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    targets = [(owner, attr) for _name, owner, attr, _where in ledger.SPANS]
    targets += list(ledger.COUNTED)
    for owner, attr in targets:
        assert callable(resolve(owner, attr)), f"{owner}.{attr}"

    classes = [resolve(owner, attr.split(".")[0]) for owner, attr in targets if "." in attr]
    before = _bindings(list(mods.values()) + classes)
    led = ledger.Ledger()
    led.install()
    try:
        for _name, owner, attr, where in ledger.SPANS:
            if "." in attr:
                assert hasattr(resolve(owner, attr), "__wrapped__"), attr
            else:
                assert hasattr(getattr(mods[(where or (owner,))[0]], attr), "__wrapped__"), attr
        for owner, attr in ledger.COUNTED:
            assert hasattr(resolve(owner, attr), "__wrapped__"), attr
    finally:
        led.uninstall()
    after = _bindings(list(mods.values()) + classes)
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_pair_and_polish_keeps_the_ledger_call_shape(monkeypatch):
    # the ledger counts chord pairings through a wrapper that passes six
    # positional arguments; dropping one (target_radius is unused) would
    # break only a traced benchmark run
    ledger = _load_ledger(monkeypatch)
    chords = importlib.import_module("shadecalc.chords")
    wrapper = ledger.Ledger()._counted_pairing(chords._pair_and_polish)
    passed = list(inspect.signature(wrapper, follow_wrapped=False).parameters)
    params = inspect.signature(chords._pair_and_polish).parameters
    assert len(passed) == 6
    assert list(params) == passed
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
