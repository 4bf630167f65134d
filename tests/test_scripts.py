"""The experiment script under scripts/, run as a user runs it."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wavetorus

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_inequality_sweep_writes_its_two_tables(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(wavetorus.__file__))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "inequality_sweep.py"), "--count", "4",
         "--truncations", "8", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["check", "parameter", "M", "max_ratio", "mean_ratio", "violations"]
    assert [r[0] for r in rows] == (["hausdorff_young"] * 3 + ["gagliardo_nirenberg"] * 2
                                    + ["embedding"] * 2 + ["box_inverse_holder"])
    assert {r[2] for r in rows} == {"8"}
    header, *rows = read_csv(tmp_path / "embedding_tails.csv")
    assert header == ["T", "max_ratio"]
    assert [r[0] for r in rows] == ["8", "16", "32", "64"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_on_fixed_numbers():
    bench = load_script("bench_pairs")
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    change = [9.0, 10.0, 10.5, 9.5, 10.0, 11.0, 9.0, 9.5, 9.0, 15.0]
    s = bench.summarize(parent, change, 0.25)
    assert s["parent"] == parent and s["change"] == change
    assert (s["parent_median"], s["change_median"]) == (12.25, 9.75)
    assert s["parent_iqr"] == 13.375 - 11.125  # inclusive quartiles
    assert (s["wins"], s["pairs"], s["rule_met"]) == (8, 10, True)
    assert bench.rule_line("multi_m24", "wall_s", s) == (
        "multi_m24 wall_s: median 12.25 -> 9.75, parent IQR 2.25, lower in 8 of 10 pairs; "
        "rule (80% of pairs and beyond the parent's IQR) met")
    # 8 wins, but the medians 2.0 apart are inside the parent's IQR
    assert not bench.summarize(parent, [c + 0.5 for c in change], 0.25)["rule_met"]
    # a tie is not a win: 7 of 10 misses the rule, with medians 3.25 apart
    tied = bench.summarize(parent, [10.0, 9.0, 9.0, 9.0, 9.0, 11.0, 9.0, 9.0, 9.0, 15.0], 0.25)
    assert (tied["change_median"], tied["wins"], tied["rule_met"]) == (9.0, 7, False)
    with pytest.raises(ValueError):
        bench.summarize(parent, change[:-1], 0.25)
    # no regression: the parent's IQR is 18.4% of its median
    assert (s["relative_change"], s["bound"], s["regression"]) == (
        (9.75 - 12.25) / 12.25, 0.25, "within bound")
    assert bench.regression_line("multi_m24", "wall_s", s) == (
        "multi_m24 wall_s: median change -20.4%, bound 25%, parent IQR 18.4% of its median: "
        "within bound")
    worse = bench.summarize(parent, [c + 6.0 for c in change], 0.25)  # median 15.75, +28.6%
    assert (worse["wins"], worse["regression"]) == (0, "beyond bound")
    # a bound tighter than the parent's spread reads unresolved, also when the
    # medians say better ...
    assert bench.summarize(parent, change, 0.1)["regression"] == "unresolved"
    # ... unless every change run beats every parent run
    assert bench.summarize(parent, [9.0] * 10, 0.1)["regression"] == "within bound"
    assert bench.summarize(parent, [14.0] * 10, 0.1)["regression"] == "unresolved"
