"""The experiment script under scripts/, run as a user runs it."""

import csv
import os
import subprocess
import sys
from pathlib import Path

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
