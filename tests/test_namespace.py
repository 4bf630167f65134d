"""The names other code looks up in wavetorus by string or from the package.

The package namespace re-exports exactly the names the acceptance suite and
the benchmark's gate import from it; every other name is imported from the
module that defines it.  The benchmark's span recorder patches module
attributes it names by string, so a renamed or removed target would only
show as a refused benchmark run; these tests read both benchmark files with
``ast`` and resolve every ``wavetorus`` target.  A public function or class
of ``src/`` that no code runs is caught the same way.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import wavetorus

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "benchmark" / "spans.py"
# public src/ names kept without a caller in src/, the scripts, the benchmark
# or the acceptance suite, each with its reason
UNCALLED_KEPT = {
    "time_translate": "the group action that multi's dedup is defined modulo",
    "dyadic_blocks": "the reference of holder_estimate's bit-identity test",
}


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


def used_names(node):
    """Names and attribute names read in the code of ``node`` (docstrings,
    being strings, do not count)."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def named_in(path):
    """The names a file's code reads or imports, and the dotted identifiers
    among its strings (benchmark/spans.py names its targets by string)."""
    tree = ast.parse(path.read_text())
    names = used_names(tree) | {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)}
    for n in ast.walk(tree):
        if (isinstance(n, ast.Constant) and isinstance(n.value, str)
                and all(part.isidentifier() for part in n.value.split("."))):
            names.update(n.value.split("."))
    return names


def test_every_public_src_name_is_reached():
    # a public name is reached when a script, the benchmark or the acceptance
    # suite names it, or when module-level or private src/ code, or a reached
    # public name, reads it: a cluster of public names that only call each
    # other is caught too
    defs, roots = {}, set()
    for path in sorted((ROOT / "src" / "wavetorus").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs[node.name] = node
            else:
                roots |= used_names(node)
    outside = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "benchmark").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py"]
    roots |= set().union(*map(named_in, outside)) | UNCALLED_KEPT.keys()
    reached, todo = set(), list(roots & defs.keys())
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += used_names(defs[name]) & defs.keys()
    assert sorted(defs.keys() - reached) == []
