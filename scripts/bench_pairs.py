"""Alternating pairs of benchmark runs: a change against its parent commit.

    python scripts/bench_pairs.py --parent REF --tag TAG \
        [--workload NAME:PAIRS ...] [--change REF] [--seed 12345] [--seconds 20]

Run from the root of a checkout.  The parent ``REF`` is extracted with
``git archive`` into a fresh directory, and so is ``--change`` when given;
without it the change is the working tree: its tracked and untracked, not
ignored, files are copied into a fresh directory, so both sides run from
clean copies.  For each workload (by default every workload that
``BENCHMARK.json`` lists, at 10 pairs each; fewer than 10 pairs cannot
express the 9-of-10 rule below), ``python3 benchmark/run.py --workload NAME
--seed SEED --seconds SECONDS --trace 0`` runs in PAIRS pairs, the parent
first in even pairs and the change first in odd ones, so a drift of the
host falls on both sides.

It writes ``BENCH_<TAG>.json`` at the root of the checkout: per workload
and end-to-end metric, the per-pair values of both sides, both medians, the
parent's interquartile range and the pairs the change won; beside them the
host (cores, CPU affinity set, the benchmark's BLAS thread setting, the
Python, numpy, scipy and OpenBLAS versions) and both commits.  It prints,
per metric, whether a claimed gain is met: the change won at least 9 of
every 10 pairs run (a tie is a win for neither side), and the medians are
further apart than the parent's IQR.  It also prints and records the
no-regression reading: the relative change of the medians against the
metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the parent's median),
as "within bound" or "beyond bound", or "unresolved" when the parent's IQR
over its median exceeds the bound and not every change run beats every
parent run.  Both readings are printed, not enforced: the exit status is 0
whenever every run passed its gate.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the benchmark's end-to-end metrics, each lower-is-better, and the worsening
# each may show, as a fraction of the parent's median
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
RULE_SHARE = 0.9  # share of pairs the change must win for the printed rule: 9 of 10
DEFAULT_WORKLOADS = tuple(f"{w['name']}:10" for w in BENCHMARK["workloads"])


def git(*args, **kwargs):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          **kwargs).stdout


def summarize(parent: list, change: list, bound: float) -> dict:
    """Pair statistics of one lower-is-better metric; ``parent[i]`` and
    ``change[i]`` are the two runs of pair i, and ``bound`` is the metric's
    allowed worsening as a fraction of the parent's median."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(c < p for p, c in zip(parent, change))
    iqr = q3 - q1
    relative = (c_med - p_med) / p_med
    if iqr / p_med > bound and not max(change) < min(parent):
        regression = "unresolved"
    else:
        regression = "beyond bound" if relative > bound else "within bound"
    return {"parent": list(parent), "change": list(change),
            "parent_median": p_med, "change_median": c_med, "parent_iqr": iqr,
            "wins": wins, "pairs": len(parent),
            "rule_met": wins >= math.ceil(RULE_SHARE * len(parent)) and p_med - c_med > iqr,
            "relative_change": relative, "bound": bound, "regression": regression}


def rule_line(workload: str, metric: str, s: dict) -> str:
    verdict = "met" if s["rule_met"] else "not met"
    return (f"{workload} {metric}: median {s['parent_median']:.4g} -> {s['change_median']:.4g}, "
            f"parent IQR {s['parent_iqr']:.4g}, lower in {s['wins']} of {s['pairs']} pairs; "
            f"rule ({RULE_SHARE:.0%} of pairs and beyond the parent's IQR) {verdict}")


def regression_line(workload: str, metric: str, s: dict) -> str:
    return (f"{workload} {metric}: median change {s['relative_change']:+.1%}, bound "
            f"{s['bound']:.0%}, parent IQR {s['parent_iqr'] / s['parent_median']:.1%} of its "
            f"median: {s['regression']}")


def extract(ref: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", ref))) as tar:
        tar.extractall(dest)


def copy_worktree(dest: Path) -> None:
    for name in git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def tree_digest(tree: Path) -> str:
    """sha256 over the paths and bytes of the tree's program and benchmark files."""
    h = hashlib.sha256()
    for path in sorted(p for d in ("src", "benchmark") for p in (tree / d).rglob("*.py")):
        h.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``benchmark/run.py --trace 0`` run in ``tree``: its last output
    line (correct, attempted, failed, metrics) and the env it recorded."""
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} in {tree}: no output; {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((tree / ".bench_runs" / workload / "result.json").read_text())
    result["env"] = record.get("env")
    return result


def host() -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"cores": os.cpu_count(), "affinity": affinity}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--change", help="git ref of the change (default: the working tree)")
    parser.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    parser.add_argument("--workload", action="append", metavar="NAME:PAIRS",
                        help=f"repeatable (default: {' '.join(DEFAULT_WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    plan = [(name, int(pairs)) for name, pairs in
            (w.split(":") for w in args.workload or DEFAULT_WORKLOADS)]

    out = {"command": f"benchmark/run.py --seed {args.seed} --seconds {args.seconds} --trace 0",
           "host": host(), "rule": f"change lower in at least {RULE_SHARE:.0%} of pairs (a tie "
                                   "wins for neither side) and medians further apart than the "
                                   "parent's IQR (printed only)",
           "regression": "relative change of the medians within the metric's bound; "
                         "unresolved when the parent's IQR over its median exceeds the bound, "
                         "unless every change run beats every parent run (printed only)"}
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for path in sides.values():
            path.mkdir()
        extract(args.parent, sides["parent"])
        if args.change:
            extract(args.change, sides["change"])
        else:
            copy_worktree(sides["change"])
        head = git("rev-parse", "HEAD", text=True).strip()
        out["commits"] = {
            "parent": git("rev-parse", args.parent, text=True).strip(),
            "change": (git("rev-parse", args.change, text=True).strip() if args.change
                       else f"working tree on {head}"),
            "tree_sha256": {side: tree_digest(path) for side, path in sides.items()}}
        out["workloads"] = {}
        for workload, pairs in plan:
            runs = {"parent": [], "change": []}
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(sides[side], workload, args.seed, args.seconds)
                    all_correct &= bool(result["correct"])
                    runs[side].append(result)
                    values = ", ".join(f"{m} {result['metrics'][m]['value']:.4g}"
                                       for m in BOUNDS if m in result["metrics"])
                    print(f"{workload} pair {i + 1}/{pairs} {side}: correct {result['correct']}, "
                          f"{result['attempted']} attempted / {result['failed']} failed, "
                          f"{values}", flush=True)
            entry = {"pairs": pairs, "order": "parent first in even pairs (from 0)",
                     "env": runs["change"][0]["env"],
                     "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
                     "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
                     "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                     "metrics": {}}
            for m, bound in BOUNDS.items():
                if all(m in r["metrics"] for rs in runs.values() for r in rs):
                    entry["metrics"][m] = summarize(
                        *([r["metrics"][m]["value"] for r in runs[side]]
                          for side in ("parent", "change")), bound)
            out["workloads"][workload] = entry
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in out["workloads"].items():
        for m, s in entry["metrics"].items():
            print(rule_line(workload, m, s))
            print(regression_line(workload, m, s))
    print(f"wrote {path.name}; every run passed its gate: {all_correct}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
