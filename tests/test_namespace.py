"""The names other code looks up in wavetorus by string or from the package.

The package namespace re-exports exactly the names the acceptance suite and
the benchmark's gate import from it; every other name is imported from the
module that defines it.  The benchmark's span recorder patches module
attributes it names by string, so a renamed or removed target would only
show as a refused benchmark run; these tests read both benchmark files with
``ast`` and resolve every ``wavetorus`` target.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import wavetorus

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "benchmark" / "spans.py"


def names_imported_from_package(path):
    return {alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "wavetorus" and not node.level
            for alias in node.names}


def span_targets():
    """(module, attribute) of every LAYER_CALLS entry, and of every
    ``replace_function`` call with literal arguments (the operation timers),
    in benchmark/spans.py."""
    layer, timers = [], []
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_CALLS" for t in node.targets):
            layer += [(module, attr) for _, module, attr in ast.literal_eval(node.value)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "replace_function"
              and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            timers.append((node.args[0].value, node.args[1].value))
    return layer, timers


LAYER_TARGETS, TIMER_TARGETS = span_targets()
# scipy's entry points are scipy's to keep
WAVETORUS_TARGETS = [t for t in LAYER_TARGETS + TIMER_TARGETS if t[0].startswith("wavetorus")]


def test_package_exports_only_the_acceptance_and_gate_names():
    contract = (names_imported_from_package(ROOT / "tests" / "test_acceptance.py")
                | names_imported_from_package(ROOT / "benchmark" / "gate.py"))
    public = {name for name, value in vars(wavetorus).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == contract


def test_gate_imports_resolve():
    names = names_imported_from_package(ROOT / "benchmark" / "gate.py")
    assert names
    assert [n for n in sorted(names) if not hasattr(wavetorus, n)] == []


def test_span_targets_are_found():
    assert LAYER_TARGETS
    assert ("wavetorus.solver", "newton_solve") in TIMER_TARGETS
    assert ("wavetorus.verify", "ensemble_fields") in TIMER_TARGETS


@pytest.mark.parametrize("module, attr", WAVETORUS_TARGETS,
                         ids=[f"{m}:{a}" for m, a in WAVETORUS_TARGETS])
def test_benchmark_span_target_resolves(module, attr):
    # a method is patched on the class that defines it, a function on its
    # module
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner)
    assert callable(getattr(owner, attr))
