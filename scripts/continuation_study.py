#!/usr/bin/env python3
"""Continuation of a kernel-engaged branch in the penalty parameter.

Finds a time-dependent solution of u_tt - u_xx = (1 + sin(2x)/2) u^3 + tanh u
at the starting penalty from a concentrated seed, follows it down to the
floor, and reports the variation of the monitored a priori quantities.

If the branch stalls, the rows reached before the stall are still written to
trace.csv (and monitored, when there are any); the script then prints the
stall on stderr and exits with status 3, the CLI's solver-failure code.
"""

import argparse
import json
import os
import sys

from wavetorus import (
    BetaSchedule,
    PenalizedProblem,
    SpectralField,
    StallAt,
    SubspaceTag,
    apriori_monitor,
    continuation_beta,
    make_nonlinearity,
    random_field,
)
from wavetorus.cli import EXIT_SOLVER

DEFAULT_NL = {
    "a": [{"j": 0, "c": 1.0}, {"j": 1, "c_sin": 0.5}],
    "m": {"kind": "tanh", "alpha": 1.0},
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--M", type=int, default=24)
    ap.add_argument("--beta-start", type=float, default=1e-1)
    ap.add_argument("--beta-floor", type=float, default=1e-6)
    ap.add_argument("--factor", type=float, default=0.5)
    ap.add_argument("--seed-mode", type=int, nargs=2, default=(2, 2),
                    metavar=("J", "K"))
    ap.add_argument("--seed-amplitude", type=float, default=2.5)
    ap.add_argument("--out", default="runs/continuation")
    args = ap.parse_args(argv)

    nl = make_nonlinearity(3, DEFAULT_NL["a"], DEFAULT_NL["m"])
    p = PenalizedProblem(M=args.M, beta=args.beta_start, nl=nl, sigma=1)
    j, k = args.seed_mode
    seed = (SpectralField.from_modes(args.M, {(j, k): args.seed_amplitude / 2.0})
            + 0.08 * random_field((9, j, k + 100), args.M, SubspaceTag.ALL, 0.8))
    sched = BetaSchedule(args.beta_start, args.factor, args.beta_floor)
    stall = None
    try:
        trace = continuation_beta(p, sched, seed)
    except StallAt as exc:
        stall, trace = exc, exc.trace

    os.makedirs(args.out, exist_ok=True)
    trace.to_csv(os.path.join(args.out, "trace.csv"))
    for r in trace.rows:
        print(f"beta={r.beta:.3e}  I={r.I_value:+.6e}  vC0={r.v_c0:.4f}  "
              f"vt={r.v_t_l2:.4f}  vtt={r.v_tt_l2:.4f}  wH2={r.w_h2:.3f}")
    if trace.rows:
        monitor = apriori_monitor(trace)
        with open(os.path.join(args.out, "monitor.json"), "w") as fh:
            json.dump(monitor, fh, sort_keys=True, indent=1)
        for name, q in monitor["per_quantity"].items():
            print(f"{name}: ratio {q['ratio']:.4f}"
                  + ("" if q["within_bound"] else "  EXCEEDS BOUND"))
    if stall is not None:
        print(f"stalled at beta={stall.beta:g}: {stall.cause}", file=sys.stderr)
        return EXIT_SOLVER
    return 0


if __name__ == "__main__":
    sys.exit(main())
