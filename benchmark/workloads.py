"""Workload definitions for the wavetorus benchmark.

Every workload is one ``wavetorus`` CLI config, run through
``wavetorus.cli.parse_config`` and ``wavetorus.cli.run`` in a fresh process,
so config parsing, report writing, field files and the per-process
``lattice``/``_packing`` caches are paid on every call, as a user pays them.
The load is a closed loop: one caller, one call at a time, single-threaded
BLAS.  The workload seed is the config seed; nothing else varies with it.

Each definition carries why it was chosen and the layer the sizing trace
says dominates it (2 cores, one BLAS thread, numpy 2.4, scipy 1.17).

A third workload, ``continue`` at M=48 (beta-continuation, 2305 unknowns,
LU- and memory-bound), is left out for now.  A campaign of 22 runs per
workload, each with 15 set-up processes, has to finish within an hour, and
with three workloads it does not on a 2-core host in its slow periods.
"""

from __future__ import annotations

from dataclasses import dataclass

# f(x, u) = (1 + sin(2x)/2) u^3 + tanh(u): the acceptance suite's default
NONLINEARITY = {
    "s": 3,
    "a": [{"j": 0, "c": 1.0}, {"j": 1, "c_sin": 0.5}],
    "m": {"kind": "tanh", "alpha": 1.0},
    "b": [],
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dominant: str
    config: dict  # CLI config without the seed
    default_seed: int
    op: str  # public call timed as one operation: "newton_solve" or "ensemble_fields"
    unit_s: float  # seconds of one call on a 2-core Xeon host; a run makes
    # max(1, seconds // unit_s) calls, so its work does not depend on speed

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": int(seed)}


def multi_config(M: int, n_seeds: int) -> dict:
    return {"command": "multi", "M": M, "beta": 1e-4, "sigma": 1,
            "newton": {"tol": 1e-10, "max_iter": 60, "line_search": True},
            "nl": NONLINEARITY,
            "multi": {"n_seeds": n_seeds, "dedup_threshold": 0.99}}


def verify_config(M: int, count: int, **extra) -> dict:
    return {"command": "verify",
            "verify": {"suite": "all", "count": count, "ensemble_M": M, **extra}}


WORKLOADS = (
    Workload(
        name="multi_m24",
        why=("Cold, small-n (601 unknowns) and failure-heavy: the acceptance "
             "fixture's full 32-seed ladder, about 14 of 32 seeds failing. "
             "Stresses Jacobian gathering, LU, line-search residuals and "
             "time-translation dedup; fail-fast, deflation and cheaper "
             "assembly show here. The ladder is never cut, because its "
             "prefixes are biased toward failing seeds."),
        dominant="solver (Jacobian gathering in newton self time, then lu_factor)",
        config=multi_config(24, 32), default_seed=12345,
        op="newton_solve", unit_s=40.0),
    Workload(
        name="verify_m64",
        why=("Inequality ensembles on 520x520 grids that never touch the "
             "solver: spectral transforms plus grid norms. Real FFTs and "
             "smaller grids show here; their effect on multi_m24 is small."),
        dominant="spectral (synthesize_values), then norms (norm_Lp)",
        config=verify_config(64, 100), default_seed=12345,
        op="ensemble_fields", unit_s=11.0),
)

# The same workloads at toy sizes, for the benchmark's smoke test.
TOY_WORKLOADS = (
    Workload(name="multi_m24", why="toy", dominant="solver",
             config=multi_config(8, 6), default_seed=12345,
             op="newton_solve", unit_s=1.0),
    Workload(name="verify_m64", why="toy", dominant="spectral",
             config=verify_config(8, 8, tails=[4], tail_count=8), default_seed=12345,
             op="ensemble_fields", unit_s=1.0),
)

