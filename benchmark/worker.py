"""One benchmark call in a fresh process: ``python3 worker.py JOB T_SPAWN``.

JOB is a JSON file written by run.py with the CLI config, the operation to
time, the output directory and whether to trace.  T_SPAWN is the parent's
CLOCK_MONOTONIC reading just before it started this process, so set-up time
covers interpreter start, the numpy/scipy/wavetorus imports and
``parse_config`` (which builds the nonlinearity certificate).

Untraced calls carry only the operation timer.  Traced calls wrap every
layer (spans.py) and write their spans next to the result.  Either way the
result file holds the timings, peak RSS, the outputs the correctness gate
compares and the invariant problems found.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            out = ""
        caches[key.lower()] = int(out) if out.isdigit() else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": blas.get("openblas configuration"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cache_bytes": caches,
        "concurrency": "closed loop, one caller, single-threaded; no queues or locks",
    }


def layer_report(rec) -> dict:
    """Per-span-name calls, total and self seconds, plus derived counts."""
    own = rec.self_times()
    table = {}
    for (name, start, end, _), self_s in zip(rec.spans, own):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    # children per span, for lgmres matvecs and per-Newton-call accounting
    kids = {}
    for name, _, _, parent in rec.spans:
        if parent >= 0:
            k = kids.setdefault(parent, {})
            k[name] = k.get(name, 0) + 1
    under_lgmres = set(i for i, s in enumerate(rec.spans) if s[0] == "solver.lgmres")
    matvecs = 0
    for i, (name, _, _, parent) in enumerate(rec.spans):
        if parent in under_lgmres:
            under_lgmres.add(i)
            matvecs += name == "spectral.synthesize_values"
    # layer totals over the workload call only (set-up spans excluded)
    in_run = set()
    modules = {}
    for i, ((name, _, _, parent), self_s) in enumerate(zip(rec.spans, own)):
        if name == "cli.run" or parent in in_run:
            in_run.add(i)
            mod = name.split(".")[0]
            modules[mod] = modules.get(mod, 0.0) + self_s
    steps = failed_steps = levenberg = 0
    failures = {"max_iter": 0, "stalled": 0, "singular": 0}
    for idx, (reason, n) in rec.newton.items():
        steps += n
        if reason:
            failures[reason] += 1
            failed_steps += n
        k = kids.get(idx, {})
        if not k.get("solver.lgmres") and reason != "singular":
            levenberg += max(k.get("solver.lu_factor", 0) - n, 0)
    return {"layers": table, "modules": modules, "fft_points": rec.fft_points,
            "lu_flops": rec.lu_flops, "lgmres_matvecs": matvecs, "newton_steps": steps,
            "failed_steps": failed_steps, "newton_failures": failures,
            "levenberg_factorizations": levenberg}


def main(job_path: str, t_spawn: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    import wavetorus
    import wavetorus.cli as cli

    src = os.path.realpath(job["src"])
    if not os.path.realpath(wavetorus.__file__).startswith(src + os.sep):
        raise SystemExit(f"wavetorus imported from {wavetorus.__file__}, not {src}")

    import gate
    import spans

    patcher = spans.Patcher()
    recorder = timer = None
    if job["trace"]:
        recorder = spans.SpanRecorder()
        recorder.install(patcher)
    cfg = cli.parse_config(job["config"])
    t_parsed = monotonic()
    result = {"setup_s": t_parsed - t_spawn}
    if job.get("setup_only"):
        _write(job["result"], result)
        return 0
    if not job["trace"]:
        timer = spans.OpTimer()
        timer.install(patcher, job["op"])
    t0 = time.perf_counter()
    code = cli.run(cfg, out_dir=job["out"])
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    patcher.restore()
    observed, problems = gate.observe(cfg, job["out"], code)
    result.update(wall_s=wall, peak_rss_mb=rss_mb, exit_code=code,
                  artifact_bytes=sum(os.path.getsize(os.path.join(job["out"], f))
                                     for f in os.listdir(job["out"])),
                  observed=observed, problems=problems, env=environment())
    if timer is not None:
        result["ops"] = timer.ops
    if recorder is not None:
        result["trace"] = layer_report(recorder)
        with open(job["spans"], "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": recorder.spans}, fh)
    _write(job["result"], result)
    return 0


def _write(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
