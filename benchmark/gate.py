"""Correctness gate of a benchmark call.

``observe`` runs in the worker after the timed call.  It reads the CLI's
artifacts and checks the invariants that hold at any seed:

- every reported residual is at most the Newton tolerance;
- the critical-point identity gap, over 1 + |I|, is at most 1e-8;
- the verify ensembles report no Hausdorff-Young violation;
- the CLI exits with status 0.

It also returns the outputs that ``compare`` matches against the committed
references at the default seeds: the sorted distinct I values (multi) and
every ensemble ratio maximum (verify).
"""

from __future__ import annotations

import json
import os

GAP_TOL = 1e-8
I_TOL = 1e-8  # relative to 1 + |I|
RATIO_RTOL = 1e-9


def observe(cfg, out_dir: str, exit_code: int):
    """(observed outputs, invariant problems) of one finished CLI call."""
    problems = []
    if exit_code != 0:
        problems.append(f"CLI exit code {exit_code}")
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return {}, problems + ["no report.json"]
    with open(path) as fh:
        report = json.load(fh)
    if report.get("status") != "ok":
        problems.append(f"report status {report.get('status')!r}")
        return {}, problems
    if cfg.command == "multi":
        return _observe_multi(cfg, out_dir, report, problems)
    if cfg.command == "verify":
        return _observe_verify(report, problems)
    raise ValueError(f"no gate for command {cfg.command!r}")


def _gap(cfg, beta: float, field_path: str, I_value: float) -> float:
    from wavetorus import (
        PenalizedProblem,
        critical_identity_gap,
        nonlinearity_from_config,
        read_field,
    )

    p = PenalizedProblem(M=cfg.M, beta=beta, nl=nonlinearity_from_config(cfg.nl),
                         sigma=cfg.sigma, oversample=cfg.oversample)
    return critical_identity_gap(p, read_field(field_path)) / (1.0 + abs(I_value))


def _observe_multi(cfg, out_dir, report, problems):
    tol = cfg.newton["tol"]
    sols = report["solutions"]
    for s in sols:
        if not s["residual_norm"] <= tol:
            problems.append(f"{s['file']}: residual {s['residual_norm']:.3e} > {tol:g}")
        gap = _gap(cfg, float(cfg.beta), os.path.join(out_dir, s["file"]), s["I_value"])
        if not gap <= GAP_TOL:
            problems.append(f"{s['file']}: critical-identity gap {gap:.3e}")
    return {"I_values": sorted(s["I_value"] for s in sols)}, problems


def _observe_verify(report, problems):
    if report["violation_count"] != 0:
        problems.append(f"{report['violation_count']} inequality violations")
    maxima = [[r["name"], r["ratios"]["max"]] for r in report["reports"]]
    return {"ratio_max": maxima}, problems


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def compare(observed: dict, reference: dict):
    """Mismatches between a call's outputs and the committed reference."""
    out = []
    if set(observed) != set(reference):
        return [f"outputs {sorted(observed)} != reference {sorted(reference)}"]
    if "I_values" in reference:
        got, want = observed["I_values"], reference["I_values"]
        if len(got) != len(want):
            out.append(f"{len(got)} distinct solutions, reference has {len(want)}")
        else:
            out += [f"I value {g!r} != reference {w!r}"
                    for g, w in zip(got, want) if not _close(g, w, I_TOL)]
    if "ratio_max" in reference:
        got, want = observed["ratio_max"], reference["ratio_max"]
        if [n for n, _ in got] != [n for n, _ in want]:
            out.append("ensemble reports differ from the reference")
        else:
            out += [f"{n} ratio max {g!r} != reference {w!r}"
                    for (n, g), (_, w) in zip(got, want)
                    if not abs(g - w) <= RATIO_RTOL * abs(w)]
    return out
