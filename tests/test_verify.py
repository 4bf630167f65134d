import numpy as np
import pytest

import wavetorus.pool
import wavetorus.verify
from wavetorus.norms import (
    holder_estimate,
    norm_Es,
    norm_Lp,
    norm_lq,
    quadrants,
    sobolev_norm,
)
from wavetorus.solver import (
    BetaSchedule,
    ContinuationRow,
    ContinuationTrace,
    continuation_beta,
    monitored_quantities,
)
from wavetorus.spectral import Q_AREA, SpectralField, SubspaceTag, random_field
from wavetorus.verify import (
    MONITORED,
    EnsembleSpec,
    apriori_monitor,
    check_box_regularity,
    check_embedding,
    check_gn,
    check_hausdorff_young,
    check_holder_to_sobolev,
    embedding_integrability,
    gn_interpolation_exponent,
    gn_reports,
    hausdorff_young_reports,
    mms_problem,
    mms_run,
)


def small_spec(count=60, M=12, decay=0.0, seed=7):
    return EnsembleSpec(count=count, M=M, decay=decay, seed=seed)


def test_interpolation_exponents():
    assert gn_interpolation_exponent(3.0) == pytest.approx(0.5)
    assert gn_interpolation_exponent(4.0) == pytest.approx(2.0 / 3.0)
    assert embedding_integrability(0.5) == pytest.approx(3.0)
    assert embedding_integrability(2.0 / 3.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        gn_interpolation_exponent(2.0)
    with pytest.raises(ValueError):
        embedding_integrability(1.0)


def test_hausdorff_young_single_character_equality():
    # complex probe e^{i(2x + t)}: both sides equal 1 exactly
    u = SpectralField.from_modes(4, {(1, 1): 1.0}, hermitian=False)
    lp = norm_Lp(u, 4.0 / 3.0) / Q_AREA ** (3.0 / 4.0)
    assert norm_lq(u, 4.0) == pytest.approx(1.0, abs=1e-14)
    assert lp == pytest.approx(1.0, rel=1e-9)


def test_hausdorff_young_parseval_at_p2():
    u = random_field(3, 10, SubspaceTag.EPERP, 0.2)
    lp = norm_Lp(u, 2.0) / np.sqrt(Q_AREA)
    assert norm_lq(u, 2.0) / lp == pytest.approx(1.0, rel=1e-10)


def test_hausdorff_young_ensemble_no_violations():
    rep = check_hausdorff_young(small_spec(count=100), 4.0 / 3.0)
    assert rep.violation_count == 0
    assert rep.ratios["max"] <= 1.0 + 1e-6
    assert rep.parameters["q"] == pytest.approx(4.0)


def test_reports_deterministic():
    a = check_hausdorff_young(small_spec(), 1.5).to_dict()
    b = check_hausdorff_young(small_spec(), 1.5).to_dict()
    assert a == b
    c = check_gn(small_spec(count=20), 3.0).to_dict()
    d = check_gn(small_spec(count=20), 3.0).to_dict()
    assert c == d


def test_gn_single_mode_closed_form():
    # u = cos(2x + 3t): the phase is equidistributed, so
    # ||u||_L3^3 = |Q| * mean(|cos|^3) = 2 pi^2 * (8/3)/(2 pi) = 8 pi / 3
    # |cos|^3 has curvature jumps at its zeros, so the trapezoid rule is
    # O(h^4) here rather than spectral; oversample accordingly
    u = SpectralField.from_modes(8, {(1, 3): 0.5})
    l3 = norm_Lp(u, 3.0, oversample=16)
    assert l3 == pytest.approx((8.0 * np.pi / 3.0) ** (1.0 / 3.0), rel=1e-6)
    l2 = norm_Lp(u, 2.0)
    e1 = norm_Es(u, 1.0)
    s = gn_interpolation_exponent(3.0)
    ratio = l3 / (l2 ** (1 - s) * e1**s)
    assert np.isfinite(ratio) and ratio > 0
    expected = ((8 * np.pi / 3) ** (1 / 3)) / (np.pi ** 0.5 * (5.0 / 2.0) ** 0.25)
    assert ratio == pytest.approx(expected, rel=1e-6)


def test_gn_report_summary_fields():
    rep = check_gn(small_spec(count=40), 4.0)
    assert rep.ensemble_size == 40
    assert rep.parameters["s"] == pytest.approx(2.0 / 3.0)
    assert 0 < rep.ratios["q50"] <= rep.ratios["q90"] <= rep.ratios["max"]


def test_embedding_single_mode_closed_form():
    u = SpectralField.from_modes(2, {(0, 1): 0.5})  # cos t: |k^2 - 4j^2| = 1
    rep_ratio = norm_Lp(u, 3.0, oversample=64) / norm_Es(u, 0.5)
    assert rep_ratio == pytest.approx((8 * np.pi / 3) ** (1 / 3) / np.sqrt(0.5),
                                      rel=1e-6)


def test_embedding_tail_ratios_decrease():
    rep = check_embedding(small_spec(count=30), 0.5, tails=(8, 16), tail_count=24)
    tails = rep.extras["tail_max_ratio"]
    assert tails[8] > tails[16] > 0.0


def test_holder_to_sobolev_closed_form_and_identity():
    u = SpectralField.from_modes(4, {(0, 3): 0.5})  # cos 3t, block 1
    h = holder_estimate(u, 0.6)
    assert h == pytest.approx(2.0**0.6, rel=1e-12)
    pp = tuple(quadrants(u))[0]
    npp = sobolev_norm(pp, 0.5, "ell1")
    assert npp == pytest.approx(np.sqrt(3.0) / 2.0, rel=1e-12)
    rep = check_holder_to_sobolev(small_spec(count=40), 0.6, 0.5)
    assert rep.extras["quadrant_identity_max_rel_err"] <= 1e-12
    assert np.isfinite(rep.ratios["max"])
    with pytest.raises(ValueError):
        check_holder_to_sobolev(small_spec(), 0.5, 0.6)


def test_holder_trial_reads_the_quadrant_split():
    # the trial draws its quadrants one at a time; its ratios are those of the
    # four fields of quadrants(u), in order, over the holder proxy
    spec = small_spec(count=6, M=10)
    rep = check_holder_to_sobolev(spec, 0.6, 0.5)
    ref = []
    for u in wavetorus.verify.ensemble_fields(spec, wavetorus.verify._SALT["holder"]):
        h = holder_estimate(u, 0.6, spec.oversample)
        ref += [np.sqrt(sobolev_norm(q, 0.5, "ell1") ** 2) / h for q in quadrants(u)]
    assert rep.extras["per_trial"] == ref


def test_box_regularity_report():
    rep = check_box_regularity(small_spec(count=40, M=16), p=2.0, gamma=0.45)
    assert np.isfinite(rep.ratios["max"]) and rep.ratios["max"] > 0


def test_mms_exact_at_matching_truncation(default_nl):
    table = mms_run(default_nl, 0.5, [8], 1e-3, seed=4)
    row = table["rows"][0]
    assert row["failed"] == ""
    assert row["l2_error"] <= 1e-9


def test_mms_decay_study(default_nl):
    table = mms_run(default_nl, 0.5, [8, 12, 16], 1e-3, seed=3)
    errs = [r["l2_error"] for r in table["rows"]]
    assert all(r["failed"] == "" for r in table["rows"])
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_mms_rejects_nonincreasing_levels(default_nl):
    with pytest.raises(ValueError):
        mms_run(default_nl, 0.5, [8, 8], 1e-3)


def test_mms_flat_target_negative_control(default_nl):
    # no decay: no convergence expected, but the table is still produced
    table = mms_run(default_nl, 0.0, [6, 8], 1e-3, seed=6, max_iter=4)
    assert len(table["rows"]) == 2
    for row in table["rows"]:
        assert set(row) >= {"M", "l2_error", "residual", "newton_iters", "failed"}


def _row(u, beta):
    return ContinuationRow(beta=beta, residual_norm=0.0, I_value=0.0,
                           newton_iters=1, u=u, **monitored_quantities(u))


def test_apriori_monitor_single_row_and_constant_zero():
    u = SpectralField.from_modes(6, {(1, 3): 0.7})  # no kernel part
    trace = ContinuationTrace([_row(u, 1e-2)])
    rep = apriori_monitor(trace)
    for name, q in rep["per_quantity"].items():
        assert q["ratio"] == 1.0, name
    assert rep["flagged"] == []


def test_apriori_monitor_flags_variation():
    u = SpectralField.from_modes(6, {(1, 2): 0.5, (0, 1): 0.3})
    trace = ContinuationTrace([_row(u, 1e-1), _row(20.0 * u, 1e-2)])
    rep = apriori_monitor(trace, bound=10.0)
    assert "v_c0" in rep["flagged"]
    assert rep["per_quantity"]["v_c0"]["ratio"] == pytest.approx(20.0, rel=1e-9)


def test_apriori_monitor_reads_trace_at_problem_oversampling(default_nl):
    # the monitor reports the quantities the trace stores, computed at the
    # problem's oversampling (2 here), not recomputed at another one
    target, p = mms_problem(default_nl, 0.5, 8, 1e-1, seed=19, oversample=2)
    trace = continuation_beta(p, BetaSchedule(1e-1, 0.25, 1e-3), target)
    rep = apriori_monitor(trace)
    for name in MONITORED:
        col = trace.column(name)
        assert rep["per_quantity"][name]["max"] == max(col), name
        assert rep["per_quantity"][name]["min"] == min(col), name
    assert trace.column("v_c0") == [monitored_quantities(r.u, 2)["v_c0"]
                                    for r in trace.rows]


def test_apriori_monitor_empty_trace_rejected():
    with pytest.raises(ValueError):
        apriori_monitor(ContinuationTrace([]))


def test_hausdorff_young_reports_outside_contract_range():
    # p > 2 is reported without asserting the constant-1 contract
    rep = check_hausdorff_young(small_spec(count=30), 4.0)
    assert rep.extras["asserted"] is False
    assert rep.violation_count == 0
    assert np.isfinite(rep.ratios["max"])


def test_holder_to_sobolev_stable_under_doubling():
    r16 = check_holder_to_sobolev(small_spec(count=200, M=16), 0.6, 0.5)
    r32 = check_holder_to_sobolev(small_spec(count=200, M=32), 0.6, 0.5)
    assert r32.ratios["max"] <= 1.05 * r16.ratios["max"]


def test_suite_reports_equal_per_exponent_checks():
    spec = small_spec(count=12, M=8)
    hy_ps = (4.0 / 3.0, 1.5, 2.0, 4.0)
    hy = hausdorff_young_reports(spec, hy_ps)
    assert [r.to_dict() for r in hy] == [check_hausdorff_young(spec, p).to_dict()
                                         for p in hy_ps]
    # per-trial ratios against an oracle that synthesizes each norm on its own
    fields = list(wavetorus.verify.ensemble_fields(spec, 11))
    for p, r in zip(hy_ps, hy):
        q = p / (p - 1.0)
        assert r.extras["per_trial"] == [norm_lq(u, q) / (norm_Lp(u, p) / Q_AREA ** (1.0 / p))
                                         for u in fields]
    gn_ps = (3.0, 4.0)
    assert [r.to_dict() for r in gn_reports(spec, gn_ps)] == [check_gn(spec, p).to_dict()
                                                             for p in gn_ps]


def test_suites_reject_a_bad_exponent_before_drawing(monkeypatch):
    drawn = []

    def fields(spec, salt):
        drawn.append(salt)
        yield from ()

    monkeypatch.setattr(wavetorus.verify, "ensemble_fields", fields)
    spec = small_spec(count=4, M=6)
    with pytest.raises(ValueError):
        hausdorff_young_reports(spec, (1.5, 2.0, 1.0))
    with pytest.raises(ValueError):
        gn_reports(spec, (3.0, 2.0))
    assert drawn == []
    hausdorff_young_reports(spec, (1.5,))  # the stub records a valid call
    assert drawn == [11]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_suite_draws_count_fields_through_ensemble_fields(monkeypatch, workers):
    # the benchmark times each verify trial at the module's ensemble_fields,
    # recording it when the generator is resumed after a field: every suite
    # draws exactly count fields through that name and exhausts it, on one
    # worker or several.  The fields are drawn lazily: when one is drawn, at
    # most one earlier field per worker is still alive
    import weakref

    real = wavetorus.verify.ensemble_fields
    drawn, freed, alive = [], [], []

    def counting(spec, salt):
        for u in real(spec, salt):
            alive.append(len(drawn) - len(freed))
            weakref.finalize(u, freed.append, None)
            yield u
            drawn.append(salt)

    monkeypatch.setattr(wavetorus.verify, "ensemble_fields", counting)
    monkeypatch.setattr(wavetorus.pool, "usable_cores", lambda: workers)
    spec = small_spec(count=5, M=8)
    suites = {
        "hy": lambda: hausdorff_young_reports(spec, (1.5, 2.0)),
        "gn": lambda: gn_reports(spec, (3.0, 4.0)),
        "embedding": lambda: check_embedding(spec, 0.5, tails=(4,), tail_count=3),
        "holder": lambda: check_holder_to_sobolev(spec, 0.6, 0.5),
        "box": lambda: check_box_regularity(spec),
    }
    for name, run in suites.items():
        drawn.clear()
        freed.clear()
        run()
        assert drawn == [wavetorus.verify._SALT[name]] * spec.count, name
    assert max(alive) <= workers
