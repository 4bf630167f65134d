#!/usr/bin/env python3
"""Sweep the inequality-ratio ensembles over their parameter ranges.

Emits one CSV row per (check, parameter, truncation) with the ratio summary,
plus the tail-compactness table of the fractional embedding.
"""

import argparse
import os

from wavetorus.spectral import write_csv
from wavetorus.verify import (
    EnsembleSpec,
    check_box_regularity,
    check_embedding,
    gn_reports,
    hausdorff_young_reports,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=400)
    ap.add_argument("--truncations", type=int, nargs="+", default=[16, 32, 64])
    ap.add_argument("--seed", type=int, default=314)
    ap.add_argument("--out", default="runs/inequalities")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for M in args.truncations:
        spec = EnsembleSpec(count=args.count, M=M, seed=args.seed)
        for rep in hausdorff_young_reports(spec):
            rows.append(("hausdorff_young", "p={p:.4g}".format(**rep.parameters), M,
                         rep.ratios["max"], rep.ratios["mean"], rep.violation_count))
        for rep in gn_reports(spec):
            rows.append(("gagliardo_nirenberg", "p={p:g}".format(**rep.parameters), M,
                         rep.ratios["max"], rep.ratios["mean"], 0))
        for s in (0.5, 2.0 / 3.0):
            rep = check_embedding(spec, s, tails=(), tail_count=0)
            rows.append(("embedding", f"s={s:.4g}", M, rep.ratios["max"],
                         rep.ratios["mean"], 0))
        rep = check_box_regularity(spec)
        rows.append(("box_inverse_holder", "p={p:g},gamma={gamma:g}".format(**rep.parameters),
                     M, rep.ratios["max"], rep.ratios["mean"], 0))

    tail_rep = check_embedding(EnsembleSpec(count=64, M=16, seed=args.seed),
                               0.5, tails=(8, 16, 32, 64), tail_count=64)

    path = os.path.join(args.out, "sweep.csv")
    write_csv(path, ("check", "parameter", "M", "max_ratio", "mean_ratio", "violations"),
              rows)
    write_csv(os.path.join(args.out, "embedding_tails.csv"), ("T", "max_ratio"),
              sorted(tail_rep.extras["tail_max_ratio"].items()))
    for r in rows:
        print(f"{r[0]:22s} {r[1]:12s} M={r[2]:<3d} max={r[3]:.4f} mean={r[4]:.4f}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
