"""The artifact corpus, run on a parent commit and on the working tree, byte for byte.

    python scripts/same_bytes.py --parent REF

Run from the root of a checkout.  The parent ``REF`` is extracted with
``git archive`` and the working tree copied (its tracked and untracked, not
ignored, files), as ``scripts/bench_pairs.py`` does, each into a fresh
directory.  The corpus is every ``examples/**/*.json`` and the configs of
the benchmark's workloads at seed 12345, verify_m64 with ``write_ratios``;
all are read from this checkout and given unchanged to both sides, so only
``src/`` differs between them.  Each config runs as ``python -m
wavetorus.cli COMMAND --config NAME.json --out NAME``, NAME its file name or
workload name, with that side's ``src/`` on ``PYTHONPATH``,
``OPENBLAS_NUM_THREADS=1`` and ``PYTHONHASHSEED=0``, in the side's output
directory, ``norms`` last (its config names a field that another config
writes, relative to that directory).  Beside the artifacts under NAME/ are
the config and the run's NAME.stdout, NAME.stderr and NAME.exit.

It prints every file that differs between the sides or exists on one side
only, every run that exited nonzero, and the number of files compared.  The
exit status is 1 when there is either, else 0.  A text file whose sides
have the same text between their numbers, and as many numbers, differs in
its numbers only: its line says so, with the largest relative difference
|a - b| / max(|a|, |b|) of two numbers, and with "a zero changed sign" when
0.0 and -0.0 trade places (``how_differs``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "benchmark")]
from bench_pairs import ROOT, copy_worktree, extract  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 12345  # the benchmark's default seed
# a decimal number as the artifacts write it: JSON, CSV and str(float)
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def corpus() -> list:
    """(name, config text) of every run, in run order."""
    runs = [(path.stem, path.read_text())
            for path in sorted((ROOT / "examples").glob("**/*.json"))]
    for w in WORKLOADS:
        cfg = w.config_for(SEED)
        if cfg["command"] == "verify":
            cfg["verify"] = {**cfg["verify"], "write_ratios": True}
        runs.append((w.name, json.dumps(cfg) + "\n"))
    if len({name for name, _ in runs}) != len(runs):
        raise ValueError("two corpus configs share a name, and so an output directory")
    return sorted(runs, key=lambda run: json.loads(run[1])["command"] == "norms")


def run_corpus(tree: Path, out: Path) -> None:
    """Run the corpus on ``tree``'s ``src/`` in the new directory ``out``."""
    env = {**os.environ, "PYTHONPATH": str((tree / "src").resolve()),
           "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
    out.mkdir(parents=True)
    for name, text in corpus():
        (out / f"{name}.json").write_text(text)
        proc = subprocess.run([sys.executable, "-m", "wavetorus.cli", json.loads(text)["command"],
                               "--config", f"{name}.json", "--out", name],
                              cwd=out, env=env, capture_output=True)
        (out / f"{name}.stdout").write_bytes(proc.stdout)
        (out / f"{name}.stderr").write_bytes(proc.stderr)
        (out / f"{name}.exit").write_text(f"{proc.returncode}\n")


def how_differs(a: bytes, b: bytes) -> str:
    """" (numbers only, max relative difference X)" when the texts ``a`` and
    ``b`` split into the same text between their numbers and as many
    numbers, with "; a zero changed sign" when a number went from 0.0 to
    -0.0 or back; "" otherwise."""
    try:
        a, b = a.decode(), b.decode()
    except UnicodeDecodeError:
        return ""
    # the same text between the numbers: so as many numbers, in the same places
    if NUMBER.split(a) != NUMBER.split(b):
        return ""
    pairs = [(float(x), float(y)) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))]
    rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y), default=0.0)
    signed = any(x == y == 0.0 and math.copysign(1.0, x) != math.copysign(1.0, y)
                 for x, y in pairs)
    return (f" (numbers only, max relative difference {rel:.2g}"
            + ("; a zero changed sign" if signed else "") + ")")


def compare(parent: Path, change: Path) -> int:
    """Print what differs between the two sides' corpus outputs and which
    runs exited nonzero; 1 when anything does, else 0."""
    sides = {"parent": parent, "change": change}
    files = sorted({path.relative_to(root).as_posix() for root in sides.values()
                    for path in root.rglob("*") if path.is_file()})
    differ = [f for f in files if not all((root / f).is_file() for root in sides.values())
              or (parent / f).read_bytes() != (change / f).read_bytes()]
    failed = []
    for side, root in sides.items():
        for exit_file in sorted(root.glob("*.exit")):
            code = exit_file.read_text().strip()
            if code != "0":
                failed.append(f"{side} {exit_file.stem} exited {code}")
    for f in differ:
        both = all((root / f).is_file() for root in sides.values())
        how = how_differs((parent / f).read_bytes(), (change / f).read_bytes()) if both else ""
        print(f"differs: {f}{how}")
    for line in failed:
        print(line)
    print(f"{len(files)} files compared: {len(differ)} differ, "
          f"{len(failed)} runs exited nonzero")
    return 1 if differ or failed else 0


def check(parent_tree: Path, change_tree: Path, work: Path) -> int:
    """Run the corpus on both trees, under ``work``, and compare."""
    run_corpus(parent_tree, work / "parent")
    run_corpus(change_tree, work / "change")
    return compare(work / "parent", work / "change")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        trees = {side: Path(tmp) / f"{side}_tree" for side in ("parent", "change")}
        for tree in trees.values():
            tree.mkdir()
        extract(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        return check(trees["parent"], trees["change"], Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
