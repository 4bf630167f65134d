"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight shared
artifacts (continuation trace, multiplicity search, manufactured-solution
study) are module-scoped fixtures; every criterion pins its tolerance here.
"""

import time

import numpy as np
import pytest

from wavetorus import (
    EnsembleSpec,
    PenalizedProblem,
    SpectralField,
    SubspaceTag,
    apply_box,
    apriori_monitor,
    BetaSchedule,
    check_box_regularity,
    check_embedding,
    check_gn,
    check_hausdorff_young,
    continuation_beta,
    critical_identity_gap,
    functional_I,
    h1_bound_ratio,
    holder_estimate,
    make_nonlinearity,
    max_time_correlation,
    mms_run,
    multi_seed_search,
    pair,
    project,
    random_field,
    residual,
    solve_box,
)
from wavetorus.solver import linking_report
from tests.conftest import DEFAULT_NL_SPEC

MASTER_SEED = 12345


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def nl():
    return make_nonlinearity(3, DEFAULT_NL_SPEC["a"], DEFAULT_NL_SPEC["m"],
                             DEFAULT_NL_SPEC["b"])


@pytest.fixture(scope="module")
def default_problem(nl):
    return PenalizedProblem(M=24, beta=1e-4, nl=nl, sigma=1)


@pytest.fixture(scope="module")
def branch_seed():
    # deterministic seed that lands on a kernel-engaged time-dependent branch
    return (SpectralField.from_modes(24, {(2, 2): 1.25})
            + 0.08 * random_field((9, 2, 102), 24, SubspaceTag.ALL, 0.8))


@pytest.fixture(scope="module")
def continuation_trace(nl, branch_seed):
    p = PenalizedProblem(M=24, beta=1e-1, nl=nl, sigma=1)
    sched = BetaSchedule(1e-1, 0.5, 1e-6)
    return continuation_beta(p, sched, branch_seed, tol=1e-10, max_iter=40)


@pytest.fixture(scope="module")
def multi_solutions(default_problem):
    return multi_seed_search(default_problem, 32, dedup_threshold=0.99,
                             master_seed=MASTER_SEED, tol=1e-10, max_iter=60)


@pytest.fixture(scope="module")
def mms_table(nl):
    t0 = time.time()
    table = mms_run(nl, 0.5, [8, 12, 16, 20, 24], 1e-3, seed=5)
    table["elapsed"] = time.time() - t0
    return table


def test_criterion_01_box_round_trip():
    M, count = 32, 1000
    worst = 0.0
    for trial in range(count):
        f = random_field((MASTER_SEED, 1, trial), M, SubspaceTag.EPERP, 0.0)
        w = solve_box(f).w
        err = (apply_box(w) - project(f, SubspaceTag.EPERP)).l2() / f.l2()
        worst = max(worst, err)
    report(1, "box round trip", worst <= 1e-12, f"max rel err {worst:.2e}")


def test_criterion_02_h1_sharp_bound():
    M, count = 32, 1000
    worst = 0.0
    for trial in range(count):
        f = random_field((MASTER_SEED, 2, trial), M, SubspaceTag.EPERP, 0.0)
        worst = max(worst, h1_bound_ratio(f))
    witness = h1_bound_ratio(SpectralField.from_modes(2, {(0, 1): 0.5}))
    ok = worst <= 1.0 + 1e-12 and abs(witness - 1.0) <= 1e-12
    report(2, "H1 bound, constant 1", ok,
           f"max ratio {worst:.12f}, witness gap {abs(witness - 1.0):.2e}")


def test_criterion_03_hausdorff_young():
    spec = EnsembleSpec(count=1000, M=16, decay=0.0, seed=MASTER_SEED)
    total = 0
    worst = 0.0
    for p in (4.0 / 3.0, 1.5, 2.0):
        rep = check_hausdorff_young(spec, p, tol=1e-6)
        total += rep.violation_count
        worst = max(worst, rep.ratios["max"])
    report(3, "Hausdorff-Young zero violations", total == 0,
           f"violations {total}, max ratio {worst:.8f}")


def test_criterion_04_holder_estimator():
    gamma = 0.5
    modes = {}
    for m in range(1, 6):
        modes[(0, 3 * 2 ** (m - 1))] = 2.0 ** (-gamma * m) / 2.0
    lac = SpectralField.from_modes(48, modes)
    est = holder_estimate(lac, gamma)
    ok_lac = abs(est - 1.0) <= 0.01
    ok_mono = True
    ok_homog = True
    for trial in range(100):
        u = random_field((MASTER_SEED, 4, trial), 16, SubspaceTag.ALL, 0.1)
        h1, h2, h3 = (holder_estimate(u, g) for g in (0.25, 0.5, 0.75))
        ok_mono = ok_mono and h1 <= h2 <= h3
        base = holder_estimate(u, 0.5)
        for c in (2.0, 0.5, -4.0):
            ok_homog = ok_homog and holder_estimate(c * u, 0.5) == abs(c) * base
    report(4, "Holder estimator", ok_lac and ok_mono and ok_homog,
           f"lacunary {est:.6f}, monotone {ok_mono}, homogeneous {ok_homog}")


def test_criterion_05_box_regularity_shadow():
    count = 1000
    r32 = check_box_regularity(EnsembleSpec(count=count, M=32, seed=MASTER_SEED),
                               p=2.0, gamma=0.45)
    r64 = check_box_regularity(EnsembleSpec(count=count, M=64, seed=MASTER_SEED),
                               p=2.0, gamma=0.45)
    growth = r64.ratios["max"] / r32.ratios["max"] - 1.0
    report(5, "inverted-box Holder shadow", growth <= 0.05,
           f"max {r32.ratios['max']:.4f} -> {r64.ratios['max']:.4f} "
           f"({100 * growth:+.1f}%)")


def test_criterion_06_gn_and_embedding():
    count = 400
    lines = []
    ok = True
    for p in (3.0, 4.0):
        g32 = check_gn(EnsembleSpec(count=count, M=32, seed=MASTER_SEED), p)
        g64 = check_gn(EnsembleSpec(count=count, M=64, seed=MASTER_SEED), p)
        growth = g64.ratios["max"] / g32.ratios["max"] - 1.0
        ok = ok and growth <= 0.05
        lines.append(f"gn p={p:g} {100 * growth:+.1f}%")
    for s in (0.5, 2.0 / 3.0):
        e32 = check_embedding(EnsembleSpec(count=count, M=32, seed=MASTER_SEED),
                              s, tails=(), tail_count=0)
        e64 = check_embedding(EnsembleSpec(count=count, M=64, seed=MASTER_SEED),
                              s, tails=(8, 16, 32, 64), tail_count=64)
        growth = e64.ratios["max"] / e32.ratios["max"] - 1.0
        ok = ok and growth <= 0.05
        tails = e64.extras["tail_max_ratio"]
        vals = [tails[T] for T in (8, 16, 32, 64)]
        strictly = all(b < a for a, b in zip(vals, vals[1:]))
        ok = ok and strictly
        lines.append(f"emb s={s:.3g} {100 * growth:+.1f}% tails "
                     + ">".join(f"{v:.3f}" for v in vals))
    report(6, "GN and embedding scaling", ok, "; ".join(lines))


def test_criterion_07_gradient_consistency(nl):
    worst = 0.0
    for sigma in (1, -1):
        for beta in (1e-1, 1e-4):
            p = PenalizedProblem(M=10, beta=beta, nl=nl, sigma=sigma)
            for trial in range(50):
                u = random_field((MASTER_SEED, 7, trial, sigma + 1), 10,
                                 SubspaceTag.ALL, 0.4)
                phi = random_field((MASTER_SEED, 8, trial, sigma + 1), 10,
                                   SubspaceTag.ALL, 0.4)
                h = 1e-5
                fd = (functional_I(p, u + h * phi)
                      - functional_I(p, u - h * phi)) / (2.0 * h)
                pr = pair(residual(p, u), phi)
                worst = max(worst, abs(fd - pr) / max(abs(pr), 1.0))
    report(7, "gradient consistency", worst <= 1e-5, f"max rel {worst:.2e}")


def test_criterion_08_mms_convergence(mms_table):
    rows = mms_table["rows"]
    errs = [r["l2_error"] for r in rows]
    iters = [r["newton_iters"] for r in rows]
    band = np.exp(-0.5 * 4.0) * 1.5
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    ok = (all(r["failed"] == "" for r in rows)
          and all(rr <= band for rr in ratios)
          and errs[-1] <= 1e-9
          and max(iters) <= 10
          and mms_table["elapsed"] <= 120.0)
    report(8, "MMS geometric convergence", ok,
           "errs " + " ".join(f"{e:.1e}" for e in errs)
           + f", iters {iters}, {mms_table['elapsed']:.1f}s")


def test_criterion_09_continuation_bounds(continuation_trace):
    trace = continuation_trace
    betas = trace.column("beta")
    ok_range = betas[0] == 1e-1 and betas[-1] == 1e-6
    mon = apriori_monitor(trace, bound=10.0)
    named = ("v_c0", "v_t_l2", "v_tt_l2", "w_h2")
    ratios = {n: mon["per_quantity"][n]["ratio"] for n in named}
    ok = ok_range and all(r <= 10.0 for r in ratios.values())
    report(9, "beta-continuation a priori bounds", ok,
           ", ".join(f"{n} x{r:.3f}" for n, r in ratios.items()))


def test_criterion_10_critical_identity(nl, continuation_trace, multi_solutions,
                                        default_problem):
    from dataclasses import replace

    worst = 0.0
    p0 = PenalizedProblem(M=24, beta=1.0, nl=nl, sigma=1)
    for row in continuation_trace.rows:
        p = replace(p0, beta=row.beta)
        gap = critical_identity_gap(p, row.u)
        worst = max(worst, gap / (1.0 + abs(row.I_value)))
    for sol in multi_solutions:
        gap = critical_identity_gap(default_problem, sol.u)
        worst = max(worst, gap / (1.0 + abs(sol.I_value)))
    report(10, "critical-point identity", worst <= 1e-8,
           f"max normalized gap {worst:.2e}")


def test_criterion_11_multiplicity_and_linking(multi_solutions, default_problem):
    sols = multi_solutions
    n_distinct = len(sols)
    ok_count = n_distinct >= 2
    ok_corr = True
    for i in range(n_distinct):
        for j in range(i + 1, n_distinct):
            c, _ = max_time_correlation(sols[i].u, sols[j].u)
            ok_corr = ok_corr and c < 0.99
    ivals = sorted(s.I_value for s in sols)
    scale = 1.0 + max(abs(v) for v in ivals)
    ok_ivals = any(b - a > 1e-6 * scale for a, b in zip(ivals, ivals[1:]))
    rep = linking_report(default_problem, [4, 8, 12, 16], n_starts=4,
                         n_sphere=32, master_seed=7)
    ok = ok_count and ok_corr and ok_ivals and rep["max_nondecreasing"]
    report(11, "multiplicity and linking levels", ok,
           f"{n_distinct} distinct, I range [{ivals[0]:.3e}, {ivals[-1]:.3e}], "
           f"M(l) nondecreasing {rep['max_nondecreasing']}")
