"""The scripts under scripts/, run as a user runs them."""

import csv
import importlib.util
import os
import shutil
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


def test_inequality_sweep_and_verify_keep_the_same_defaults(tmp_path):
    # the sweep and `wavetorus verify` read their exponents and box's p and
    # gamma from one place: at one seed, count and truncation the HY, GN,
    # embedding (s = 0.5) and box maxima are equal
    import json

    from wavetorus.cli import EXIT_OK, main

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(wavetorus.__file__))}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "inequality_sweep.py"), "--count", "4",
         "--truncations", "8", "--seed", "9", "--out", str(tmp_path / "sweep")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    _, *rows = read_csv(tmp_path / "sweep" / "sweep.csv")
    # HY at 4/3, 1.5, 2, GN at 3, 4, the embedding at s = 0.5 and box; the
    # sweep's seventh row is the embedding at s = 2/3
    swept = [float(r[3]) for r in rows[:6] + rows[7:]]
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"command": "verify", "seed": 9, "verify": {
        "count": 4, "ensemble_M": 8, "tails": [4], "tail_count": 1}}))
    assert main(["verify", "--config", str(config), "--out", str(tmp_path / "v")]) == EXIT_OK
    reports = json.loads((tmp_path / "v" / "report.json").read_text())["reports"]
    assert [r["ratios"]["max"] for r in reports if r["name"] != "holder_to_sobolev"] == swept


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
    # 8 wins of 10 with medians 2.5 apart: short of the 9-of-10 rule
    assert (s["wins"], s["pairs"], s["rule_met"]) == (8, 10, False)
    assert bench.rule_line("multi_m24", "wall_s", s) == (
        "multi_m24 wall_s: median 12.25 -> 9.75, parent IQR 2.25, lower in 8 of 10 pairs; "
        "rule (90% of pairs and beyond the parent's IQR) not met")
    nine = change[:-1] + [9.0]
    met = bench.summarize(parent, nine, 0.25)
    assert (met["change_median"], met["wins"], met["rule_met"]) == (9.5, 9, True)
    assert bench.rule_line("multi_m24", "wall_s", met) == (
        "multi_m24 wall_s: median 12.25 -> 9.5, parent IQR 2.25, lower in 9 of 10 pairs; "
        "rule (90% of pairs and beyond the parent's IQR) met")
    # 9 wins, but the medians 2.15 apart are inside the parent's IQR
    inside = bench.summarize(parent, [c + 0.6 for c in nine], 0.25)
    assert (inside["wins"], inside["rule_met"]) == (9, False)
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


def test_same_bytes_compares_the_corpus_of_two_trees(tmp_path, monkeypatch, capsys):
    same = load_script("same_bytes")
    ci = Path(__file__).resolve().parents[1] / "examples" / "ci"
    toy = [(name, (ci / f"{name}.json").read_text()) for name in ("solve", "norms")]
    monkeypatch.setattr(same, "corpus", lambda: toy)
    trees = []
    for side in ("a", "b"):
        trees.append(tmp_path / side)
        shutil.copytree(Path(wavetorus.__file__).parent, trees[-1] / "src" / "wavetorus",
                        ignore=shutil.ignore_patterns("__pycache__"))
    assert same.check(*trees, tmp_path / "same") == 0
    assert capsys.readouterr().out == "13 files compared: 0 differ, 0 runs exited nonzero\n"
    solution = tmp_path / "same" / "change" / "solve" / "solution.json"
    data = bytearray(solution.read_bytes())
    data[-2] ^= 1
    solution.write_bytes(bytes(data))
    assert same.compare(tmp_path / "same" / "parent", tmp_path / "same" / "change") == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: solve/solution.json",
        "13 files compared: 1 differ, 0 runs exited nonzero"]
    # norms alone finds no field on either side: the same bytes, both runs failed
    monkeypatch.setattr(same, "corpus", lambda: toy[1:])
    assert same.check(*trees, tmp_path / "failed") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "4 files compared: 0 differ, 2 runs exited nonzero"
    assert [line.rsplit(" ", 1)[0] for line in out[:-1]] == ["parent norms exited",
                                                          "change norms exited"]


@pytest.mark.parametrize("text, error", [
    ('{"a": 1.5}\n', None), ('{"a": NaN}\n', "NaN is not strict JSON"),
    ('{"a": -Infinity}\n', "-Infinity is not strict JSON"), ('{"a": 1}', "no final newline"),
    ('{"a": }\n', "Expecting value")])
def test_strict_json_rejects_what_json_dumps_allows(tmp_path, capsys, text, error):
    strict = load_script("strict_json")
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "report.json").write_text(text)
    (tmp_path / "run" / "table.csv").write_text("NaN\n")
    if error is None:
        strict.main([tmp_path])
        assert capsys.readouterr().out == "1 JSON artifacts are strict JSON and end in a newline\n"
    else:
        with pytest.raises(SystemExit, match=error):
            strict.main([tmp_path])


_COUNTED = '''"""Module docstring,
on two lines."""

import os  # a comment


def f(x):
    """One-line docstring."""
    # a comment line
    y = (x +

         1)
    "a bare string statement"
    return """a string
that is code"""
'''


def test_ci_probes_counts_code_lines_with_tokenize():
    # 15 lines; code: the import, the def, the two lines of y's statement
    # holding tokens and the two of the returned string
    probes = load_script("ci_probes")
    assert probes.count_lines(_COUNTED) == (15, 6)
    assert probes.count_lines("") == (0, 0)
    assert probes.count_lines("x = 1") == (1, 1)


def test_strict_json_names_a_missing_directory(tmp_path, capsys):
    # a mistyped path fails instead of passing with 0 files; an existing
    # directory with no JSON file still passes
    strict = load_script("strict_json")
    (tmp_path / "sweep").mkdir()
    (tmp_path / "sweep" / "sweep.csv").write_text("M\n")
    strict.main([tmp_path / "sweep"])
    assert capsys.readouterr().out == "0 JSON artifacts are strict JSON and end in a newline\n"
    missing = tmp_path / "no" / "such"
    with pytest.raises(SystemExit) as exc:
        strict.main([tmp_path / "sweep", missing])
    assert exc.value.code == f"{missing}: no such directory"
    assert capsys.readouterr().out == ""
