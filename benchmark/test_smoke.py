"""Smoke test of the benchmark at toy sizes (M=8, six seeds, count 8).

    python3 -m pytest benchmark/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a corrupted reference trips the correctness gate, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import TOY_WORKLOADS  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_main(w, trace: int, references):
    argv = ["--workload", w.name, "--seed", str(w.default_seed),
            "--seconds", "1", "--trace", str(trace)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, workloads=TOY_WORKLOADS, references=references)
    return code, json.loads(buf.getvalue().strip().splitlines()[-1])


def corrupt(obj):
    """Copy of ``obj`` with its first number moved by 1e-6 (relative and absolute)."""
    obj = copy.deepcopy(obj)
    stack = [obj]
    while stack:
        node = stack.pop()
        for key in (range(len(node)) if isinstance(node, list) else list(node)):
            value = node[key]
            if isinstance(value, float):
                node[key] = value * (1 + 1e-6) + 1e-6
                return obj
            if isinstance(value, (list, dict)):
                stack.append(value)
    raise ValueError("no number to corrupt")


@pytest.fixture(scope="module")
def references():
    refs = {}
    for w in TOY_WORKLOADS:
        record = run.measure(w, w.default_seed, 1, False)
        assert record["correct"], record["problems"]
        refs[w.name] = record["units"][0]["observed"]
    return refs


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("w", TOY_WORKLOADS, ids=lambda w: w.name)
def test_every_metric_printed_with_unit(w, trace, kind, references):
    code, result = run_main(w, trace, references)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("w", TOY_WORKLOADS, ids=lambda w: w.name)
def test_corrupted_reference_trips_gate(w, references):
    bad = {**references, w.name: corrupt(references[w.name])}
    code, result = run_main(w, 0, bad)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify_m64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
