"""wavetorus benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads are defined in workloads.py.  Every measured call is a fresh
worker process (worker.py) that runs ``wavetorus.cli.parse_config`` and
``wavetorus.cli.run`` once, with BLAS pinned to one thread; calls run one
after another (a closed loop with one caller).

``--trace 0`` makes ``max(1, S // unit_s)`` identical calls of the
workload between two halves of 15 set-up-only processes, and reports the
end-to-end metrics: wall time and peak RSS as medians over the calls, set-up
time as the median over every process.  Per-operation latency (median and
tail) is printed beside them and reported per layer (``ops.*``): the seed
ladder's bimodal solve times make those percentiles swing from seed to seed
by more than an end-to-end bound allows.

``--trace 1`` makes an untraced and then a traced call of the same inputs
(a third, bracketing call would take a multi_m24 run past 180 s).  It
reports the per-layer metrics of the traced call, the per-operation
latencies of the untraced one, and the tracing overhead between their wall
times; the traced call's spans are written to ``.bench_runs/<workload>/``.
Every call passes the correctness gate (gate.py) or the run is not correct.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts timed operations (Newton solves or ensemble trials) and ``failed``
those belonging to a call that failed the gate.  Seeds that end in
``NoConvergence`` are an expected outcome of the search, not a failed
operation; they are reported per layer (``solver.newton.failed.*``,
``ops.fail_frac``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
REFERENCES = HERE / "references.json"

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 15
CALL_TIMEOUT_S = 160

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

MODULES = ("cli", "solver", "spectral", "nonlinearity", "norms", "dalembert", "verify")

PER_LAYER = (
    ("solver.newton.self_s", "s"), ("solver.newton.steps", "count"),
    ("solver.newton.failed.max_iter", "count"), ("solver.newton.failed.stalled", "count"),
    ("solver.newton.failed.singular", "count"), ("solver.failed_step_share", "fraction"),
    ("solver.residual_evals_per_step", "1/step"),
    ("solver.levenberg_factorizations", "count"),
    ("solver.lu_factor.calls", "count"), ("solver.lu_factor.self_s", "s"),
    ("solver.lu_factor.gflops", "GFLOP/s"),
    ("solver.lu_solve.calls", "count"), ("solver.lu_solve.self_s", "s"),
    ("solver.lgmres.calls", "count"), ("solver.lgmres.self_s", "s"),
    ("solver.lgmres.matvecs", "count"),
    ("solver.residual.calls", "count"), ("solver.residual.self_s", "s"),
    ("solver.functional_I.self_s", "s"), ("solver.monitored.self_s", "s"),
    ("solver.dedup.calls", "count"), ("solver.dedup.self_s", "s"),
    ("solver.distinct_solutions", "count"),
    ("spectral.synthesize.calls", "count"), ("spectral.synthesize.self_s", "s"),
    ("spectral.analyze.calls", "count"), ("spectral.analyze.self_s", "s"),
    ("spectral.random_field.self_s", "s"), ("spectral.fft_points", "count"),
    ("nonlinearity.values.calls", "count"), ("nonlinearity.values.self_s", "s"),
    ("nonlinearity.potential.self_s", "s"), ("nonlinearity.make.self_s", "s"),
    ("norms.norm_Lp.calls", "count"), ("norms.norm_Lp.self_s", "s"),
    ("norms.holder_estimate.calls", "count"), ("norms.holder_estimate.self_s", "s"),
    ("norms.norm_Es.calls", "count"), ("norms.norm_Es.self_s", "s"),
    ("norms.sobolev_norm.calls", "count"), ("norms.sobolev_norm.self_s", "s"),
    ("norms.norm_lq.calls", "count"), ("norms.norm_lq.self_s", "s"),
    ("dalembert.solve_box.calls", "count"), ("dalembert.solve_box.self_s", "s"),
    ("verify.hy.self_s", "s"), ("verify.gn.self_s", "s"),
    ("verify.embedding.self_s", "s"), ("verify.holder.self_s", "s"),
    ("verify.box.self_s", "s"),
    ("cli.parse_config.self_s", "s"), ("cli.artifacts.self_s", "s"), ("cli.artifact_bytes", "bytes"),
    *((f"layer.{m}.self_s", "s") for m in MODULES),
    ("ops.attempted", "count"), ("ops.failed", "count"), ("ops.fail_frac", "fraction"),
    ("ops.p50_s", "s"), ("ops.tail_s", "s"), ("ops.tail_percentile", "%"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.coverage", "fraction"),
)


def tail(values):
    """(value, percentile): the highest percentile with at least 10 values
    beyond it, never below the median."""
    v = sorted(values)
    n = len(v)
    if n <= 20:
        return statistics.median(v), 50.0
    return v[n - 11], 100.0 * (n - 10) / n


def call(w, config, unit_dir: Path, trace: bool, setup_only: bool = False) -> dict:
    """One worker process; returns its result, or {"crash": reason}."""
    unit_dir.mkdir(parents=True)
    out = unit_dir / "out"
    out.mkdir()
    job = {"config": config, "op": w.op, "trace": trace, "setup_only": setup_only,
           "src": str(SRC), "out": str(out), "result": str(unit_dir / "result.json"),
           "spans": str(unit_dir / "spans.json")}
    (unit_dir / "job.json").write_text(json.dumps(job))
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(unit_dir / "job.json"), repr(t_spawn)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"worker exceeded {CALL_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"crash": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads((unit_dir / "result.json").read_text())


def check(unit: dict, reference) -> list:
    """Gate problems of one call: crash, invariants, then the reference."""
    if "crash" in unit:
        return [unit["crash"]]
    problems = list(unit["problems"])
    if reference is not None:
        problems += gate.compare(unit["observed"], reference)
    return problems


def measure(w, seed: int, seconds: int, trace: bool, reference=None) -> dict:
    """Run one workload at one seed; returns the full result record."""
    wdir = RUNS / w.name
    shutil.rmtree(wdir, ignore_errors=True)
    config = w.config_for(seed)
    setups = []

    def probe(indices):
        for i in indices:
            unit = call(w, config, wdir / f"setup{i}", trace=False, setup_only=True)
            if "crash" in unit:
                raise RuntimeError(f"set-up probe failed: {unit['crash']}")
            setups.append(unit["setup_s"])

    # set-up probes go half before and half after the calls, so their
    # median spans the run rather than its first seconds
    n_probes = 0 if trace else SETUP_PROBES
    probe(range(n_probes // 2))
    plan = [False, True] if trace else [False] * max(1, int(seconds // w.unit_s))
    units = [call(w, config, wdir / f"call{i}", trace=t) for i, t in enumerate(plan)]
    probe(range(n_probes // 2, n_probes))
    problems = [check(u, reference) for u in units]
    good = [u for u, p in zip(units, problems) if not p]
    n_ops = max((len(u["ops"]) for u in units if "ops" in u), default=1)
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": w.why, "predicted_dominant": w.dominant,
        "reference_compared": reference is not None,
        "correct": not any(problems), "problems": problems,
        "attempted": n_ops * len(units),
        "failed": n_ops * sum(1 for p in problems if p),
        "env": next((u["env"] for u in units if "env" in u), None),
        "units": [{k: v for k, v in u.items() if k not in ("ops", "env")} for u in units],
        "setup_samples": setups + [u["setup_s"] for u in good if not u.get("trace")],
    }
    if len(good) == len(units):
        record["metrics"], record["samples"] = (
            layer_metrics(units[1], units[0]) if trace
            else end_to_end(units, record["setup_samples"]))
    (wdir / "result.json").write_text(json.dumps(record, indent=1))
    return record


def end_to_end(units, setups):
    ops = [op[0] for u in units for op in u["ops"]]
    tail_s, pct = tail(ops)
    metrics = {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
    }
    samples = {"wall_s": f"median of {len(units)} calls",
               "setup_s": f"median of {len(setups)} processes",
               "peak_rss_mb": f"median of {len(units)} calls",
               "operations": f"{len(ops)} timed: median {statistics.median(ops):.6g} s, "
                             f"p{pct:.2f} {tail_s:.6g} s"}
    return metrics, samples


def layer_metrics(traced, untraced):
    """Per-layer metrics of a traced call; operation latencies and the
    tracing overhead come from the untraced call of the same inputs."""
    tr = traced["trace"]
    layers = tr["layers"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)

    steps = tr["newton_steps"]
    fails = tr["newton_failures"]
    lu_self = self_s("solver.lu_factor")
    ops = untraced["ops"]
    n_failed_ops = sum(1 for op in ops if op[1])
    op_times = [op[0] for op in ops]
    tail_s, pct = tail(op_times)
    # share of the traced call spent inside named layers: everything under
    # cli.run except its own (unwrapped) time
    in_layers = sum(tr["modules"].values()) - layers["cli.run"]["self_s"]
    m = {
        "solver.newton.self_s": self_s("solver.newton"),
        "solver.newton.steps": steps,
        **{f"solver.newton.failed.{k}": fails[k] for k in ("max_iter", "stalled", "singular")},
        "solver.failed_step_share": tr["failed_steps"] / steps if steps else 0.0,
        "solver.residual_evals_per_step": calls("solver.residual") / steps if steps else 0.0,
        "solver.levenberg_factorizations": tr["levenberg_factorizations"],
        "solver.lu_factor.calls": calls("solver.lu_factor"),
        "solver.lu_factor.self_s": lu_self,
        "solver.lu_factor.gflops": tr["lu_flops"] / lu_self / 1e9 if lu_self else 0.0,
        "solver.lu_solve.calls": calls("solver.lu_solve"),
        "solver.lu_solve.self_s": self_s("solver.lu_solve"),
        "solver.lgmres.calls": calls("solver.lgmres"),
        "solver.lgmres.self_s": self_s("solver.lgmres"),
        "solver.lgmres.matvecs": tr["lgmres_matvecs"],
        "solver.residual.calls": calls("solver.residual"),
        "solver.residual.self_s": self_s("solver.residual"),
        "solver.functional_I.self_s": self_s("solver.functional_I"),
        "solver.monitored.self_s": self_s("solver.monitored"),
        "solver.dedup.calls": calls("solver.dedup"),
        "solver.dedup.self_s": self_s("solver.dedup"),
        "solver.distinct_solutions": len(traced["observed"].get("I_values", ())),
        "spectral.synthesize.calls": calls("spectral.synthesize_values"),
        "spectral.synthesize.self_s": self_s("spectral.synthesize", "spectral.synthesize_values"),
        "spectral.analyze.calls": calls("spectral.analyze"),
        "spectral.analyze.self_s": self_s("spectral.analyze"),
        "spectral.random_field.self_s": self_s("spectral.random_field"),
        "spectral.fft_points": tr["fft_points"],
        "nonlinearity.values.calls": calls("nonlinearity.values"),
        "nonlinearity.values.self_s": self_s("nonlinearity.values"),
        "nonlinearity.potential.self_s": self_s("nonlinearity.potential"),
        "nonlinearity.make.self_s": self_s("nonlinearity.make"),
        "dalembert.solve_box.calls": calls("dalembert.solve_box"),
        "dalembert.solve_box.self_s": self_s("dalembert.solve_box"),
        "cli.artifact_bytes": traced["artifact_bytes"],
        "ops.attempted": len(ops),
        "ops.failed": n_failed_ops,
        "ops.fail_frac": n_failed_ops / len(ops) if ops else 0.0,
        "ops.p50_s": statistics.median(op_times),
        "ops.tail_s": tail_s,
        "ops.tail_percentile": pct,
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.traced_wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.coverage": in_layers / traced["wall_s"],
    }
    for norm in ("norm_Lp", "holder_estimate", "norm_Es", "sobolev_norm", "norm_lq"):
        m[f"norms.{norm}.calls"] = calls(f"norms.{norm}")
        m[f"norms.{norm}.self_s"] = self_s(f"norms.{norm}")
    for short in ("hy", "gn", "embedding", "holder", "box"):
        m[f"verify.{short}.self_s"] = self_s(f"verify.{short}")
    for name in ("parse_config", "artifacts"):
        m[f"cli.{name}.self_s"] = self_s(f"cli.{name}")
    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = tr["modules"].get(mod, 0.0)
    return {name: m[name] for name, _ in PER_LAYER}, {
        "spans": sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])}


def print_record(record, unit_of: dict) -> None:
    w = record
    print(f"workload {w['workload']}  seed {w['seed']}  trace {int(w['trace'])}  "
          f"calls {len(w['units'])}")
    print(f"  why: {w['why']}")
    print(f"  predicted dominant layer: {w['predicted_dominant']}")
    print(f"  env: {json.dumps(w['env'], sort_keys=True)}")
    if "metrics" in w:
        samples = w["samples"]
        if w["trace"]:
            wall = w["metrics"]["trace.traced_wall_s"]
            print(f"  {'span':<28}{'calls':>9}{'total_s':>10}{'self_s':>10}{'self/wall':>10}")
            for name, row in samples["spans"]:
                print(f"  {name:<28}{row['calls']:>9}{row['total_s']:>10.3f}"
                      f"{row['self_s']:>10.3f}{row['self_s'] / wall:>10.1%}")
        for name, value in w["metrics"].items():
            note = "" if w["trace"] else f"  ({samples[name]})"
            print(f"  {name:<34} {value:>14.6g} {unit_of[name]}{note}")
        if not w["trace"]:
            print(f"  operations: {samples['operations']}")
    checked = "reference and invariants" if w["reference_compared"] else "invariants"
    print(f"  correct ({checked}): {w['correct']}")
    for i, p in enumerate(w["problems"]):
        for line in p:
            print(f"  call {i}: {line}")


def result_json(record) -> dict:
    """The contract's result object: correctness, counts and every metric
    with its unit."""
    unit_of = dict(PER_LAYER if record["trace"] else END_TO_END)
    metrics = {name: {"value": value, "unit": unit_of[name]}
               for name, value in record.get("metrics", {}).items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None, workloads=WORKLOADS, references=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w.name for w in workloads])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "wavetorus" / "cli.py").is_file():
        print(f"benchmark: no wavetorus sources under {SRC}", file=sys.stderr)
        return 2
    w = next(w for w in workloads if w.name == args.workload)
    if references is None:
        references = json.loads(REFERENCES.read_text())
    reference = None
    if args.seed == w.default_seed:
        reference = references.get(w.name)
        if reference is None:
            print(f"benchmark: no committed reference for {w.name}", file=sys.stderr)
            return 2
    record = measure(w, args.seed, args.seconds, bool(args.trace), reference)
    print_record(record, dict(PER_LAYER if args.trace else END_TO_END))
    print(json.dumps(result_json(record)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
