"""Ensemble verification of the functional inequalities.

Where an inequality has a known constant (Hausdorff-Young at normalized
measure, the H^1 inversion bound) violations are counted and must be zero.
Where the constant is implicit (regularity of the inverted wave operator,
Gagliardo-Nirenberg, the fractional embedding, the quadrant Holder-to-
Sobolev estimate) the reports certify boundedness of empirical ratio
ensembles under refinement instead of a numeric constant.

Each suite draws its fields lazily through ``ensemble_fields`` and computes
their ratios on the package's thread pool (``pool.share_work``), with
numpy's OpenBLAS held at one thread.  The ratios come back in trial order
and each is computed as in a serial loop, so the reports do not depend on
the worker count.  A report summarizes its ratios by their max, mean and
50th, 90th and 99th percentiles, the percentiles read from one sort by
numpy's linear rule (``_quantile``), so a verify run loads no ``numpy.ma``.

Every default of the ``verify`` command's keys is stated here, once: in
``EnsembleSpec``'s fields, in ``HY_PS`` and ``GN_PS`` as the exponents of
the ``hy`` and ``gn`` suites, in ``HOLDER_GAMMAS`` and in the suites'
signatures.  The command passes each suite only the keys a config sets.
The manufactured-solution study and the a priori monitor, which drive the
solver, are the solver's (``solver.mms_run``, ``solver.apriori_monitor``);
this module imports nothing from it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .dalembert import solve_box
from .errors import WavetorusError
from .norms import (
    holder_estimate,
    lp_norms,
    norm_Es,
    norm_Lp,
    norm_lq,
    quadrants,
    sobolev_norm,
)
from .pool import share_work
from .spectral import (
    OVERSAMPLE,
    Q_AREA,
    SpectralField,
    SubspaceTag,
    lattice,
    random_field,
    write_csv,
)

# fixed salts so every suite draws an independent, reproducible stream
_SALT = {"hy": 11, "gn": 12, "embedding": 13, "holder": 14, "box": 15, "tail": 16}
# the exponents of the Hausdorff-Young and Gagliardo-Nirenberg suites where
# no single p is asked for
HY_PS = (4.0 / 3.0, 1.5, 2.0)
GN_PS = (3.0, 4.0)
HOLDER_GAMMAS = (0.6, 0.5)  # gamma, gamma_prime of the holder suite


@dataclass(frozen=True)
class EnsembleSpec:
    """Deterministic random-field ensemble: supported on E_perp, fixed envelope."""

    count: int = 1000
    M: int = 16
    decay: float = 0.0
    seed: int = 0
    oversample: int = OVERSAMPLE


def ensemble_fields(spec: EnsembleSpec, salt: int):
    """The ensemble's ``spec.count`` fields, drawn one at a time, each
    supported on E_perp: the norms of the ``gn``, ``embedding`` and ``box``
    suites are defined off the kernel only and raise ``NotInEperp`` on a
    field with kernel part.

    Every suite's ratio is scale-invariant.  So where the largest
    coefficient lies below 2^-64, below which |u|^4 leaves the normal range
    and the q = 4 and p = 4 sums underflow, each field is lifted by the
    power of two that brings that coefficient into [2^-64, 2^-63), an exact
    scaling.  The envelope is exactly e^(-decay weight), so the first
    field's factor serves every field.  At ordinary scales (a decay below
    about 44) the factor is 1 and the fields are ``random_field``'s.  Above
    a decay of about 745 e^(-decay) underflows and the fields are exactly
    zero, which no ratio is defined on: that raises WavetorusError.
    """
    lift = None
    for trial in range(spec.count):
        u = random_field((spec.seed, salt, trial), spec.M, SubspaceTag.EPERP, spec.decay)
        if lift is None:
            top = np.max(np.abs(u.coeffs))
            if top == 0.0:
                raise WavetorusError(f"decay {spec.decay!r} leaves every ensemble field"
                                     " exactly zero (e^(-decay) underflows)")
            e = int(np.frexp(top)[1])  # top in [2^(e-1), 2^e)
            lift = 2.0 ** (-63 - e) if e < -63 else 1.0
        yield u if lift == 1.0 else SpectralField(u.M, lift * u.coeffs)


def _ensemble(fn, spec: EnsembleSpec, suite: str) -> list:
    """``fn`` of every field of the suite's ensemble, in trial order."""
    return share_work(fn, ensemble_fields(spec, _SALT[suite]), spec.count, "numpy")


def _columns(rows, n: int) -> list:
    """The n per-exponent ratio lists of per-trial rows of n ratios."""
    return [[row[i] for row in rows] for i in range(n)]


@dataclass(frozen=True)
class InequalityReport:
    name: str
    ensemble_size: int
    parameters: dict
    ratios: dict
    violation_count: int
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _quantile(s: np.ndarray, q: float) -> float:
    """``np.quantile(s, q)`` of a sorted, non-empty float64 array ``s``.

    numpy's default "linear" rule, type 7 of Hyndman & Fan (1996), written
    out because ``np.quantile`` reaches ``numpy.ma`` through ``np.unique``.
    With v = (n - 1) q, lo = floor(v), hi = min(lo + 1, n - 1) and
    g = v - lo, the value between a = s[lo] and b = s[hi] is numpy's
    two-sided interpolation, b - (b - a)(1 - g) when g >= 0.5 and
    a + (b - a) g otherwise, so the bits are ``np.quantile``'s save for the
    sign of a zero, which can differ: no ratio is -0.0.  It is NaN when
    ``s`` ends in NaN, as numpy sorts NaN last.
    """
    n = s.size
    if np.isnan(s[-1]):
        return float("nan")
    v = (n - 1) * q
    lo = int(v)  # floor, as v >= 0
    a, b = float(s[lo]), float(s[min(lo + 1, n - 1)])
    g = v - lo
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def _summary(ratios) -> dict:
    """Max, mean and the 50th, 90th and 99th percentiles of the ratios, the
    percentiles read from one sort (``_quantile``); all zero when empty."""
    r = np.asarray(ratios, dtype=np.float64)
    if r.size == 0:
        return {"max": 0.0, "mean": 0.0, "q50": 0.0, "q90": 0.0, "q99": 0.0}
    s = np.sort(r)
    return {
        "max": float(np.max(r)),
        "mean": float(np.mean(r)),
        "q50": _quantile(s, 0.50),
        "q90": _quantile(s, 0.90),
        "q99": _quantile(s, 0.99),
    }


def _report(name: str, spec: EnsembleSpec, ratios, params: dict, violations: int = 0,
            **extras) -> InequalityReport:
    """Summary of one ensemble's ratios, tagged with the ensemble's M, decay and seed."""
    return InequalityReport(
        name=name, ensemble_size=spec.count,
        parameters={**params, "M": spec.M, "decay": spec.decay, "seed": spec.seed},
        ratios=_summary(ratios), violation_count=violations,
        extras={**extras, "per_trial": ratios})


def gn_interpolation_exponent(p: float) -> float:
    """Interpolation exponent of the Gagliardo-Nirenberg form: (p-2)/(p-1)."""
    if p <= 2:
        raise ValueError("p must be > 2")
    return (p - 2.0) / (p - 1.0)


def embedding_integrability(s: float) -> float:
    """Integrability exponent of the fractional embedding: p = (2-s)/(1-s)."""
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    return (2.0 - s) / (1.0 - s)


def gn_reports(spec: EnsembleSpec, ps=GN_PS) -> list:
    """Ratios ||u||_Lp / (||u||_L2^(1-s) ||u||_E1^s) with s = (p-2)/(p-1),
    one report per p in ``ps``, in order.

    Every p is checked before the first field is drawn.  Each field is drawn
    and synthesized once: its L^p norms and its L^2 norm come from one grid.
    """
    ps = tuple(ps)
    ss = [gn_interpolation_exponent(p) for p in ps]

    def trial(u):
        *lps, l2 = lp_norms(u, (*ps, 2.0), spec.oversample)
        e1 = norm_Es(u, 1.0)
        return [lp / (l2 ** (1.0 - s) * e1**s) for s, lp in zip(ss, lps)]

    ratios = _columns(_ensemble(trial, spec, "gn"), len(ps))
    return [_report("gagliardo_nirenberg", spec, r, {"p": p, "s": s})
            for p, s, r in zip(ps, ss, ratios)]


def check_gn(spec: EnsembleSpec, p: float) -> InequalityReport:
    """The one-exponent case of ``gn_reports``."""
    return gn_reports(spec, (p,))[0]


def tail_band_field(seed, T: int) -> SpectralField:
    """Random Eperp field with flat magnitudes (decay 0) supported on the
    octave band T < 2|j| + |k| <= 2T."""
    u = random_field(seed, 2 * T, SubspaceTag.EPERP, 0.0)
    lat = lattice(2 * T)
    return SpectralField(2 * T, np.where(lat.weight > T, u.coeffs, 0.0))


def check_embedding(spec: EnsembleSpec, s: float = 0.5, tails=(8, 16, 32),
                    tail_count: int = 64) -> InequalityReport:
    """Ratios ||u||_Lp / ||u||_E^s at p = (2-s)/(1-s), plus the compactness
    witness: the same max ratio over tail-supported bands, decaying in T.

    The bands are not drawn from ``spec``'s ensemble: for each T in
    ``tails``, ``tail_count`` fields of ``tail_band_field`` at M = 2T, with
    flat magnitudes, so ``spec.M`` and ``spec.decay`` never reach them;
    ``spec.seed`` and ``spec.oversample`` do."""
    p = embedding_integrability(s)

    def ratio(u):
        return norm_Lp(u, p, spec.oversample) / norm_Es(u, s)

    def tail_ratio(band):
        T, trial = band
        return ratio(tail_band_field((spec.seed, _SALT["tail"], T, trial), T))

    ratios = _ensemble(ratio, spec, "embedding")
    tails = tuple(tails)
    bands = ((T, trial) for T in tails for trial in range(tail_count))
    tail_ratios = share_work(tail_ratio, bands, len(tails) * tail_count, "numpy")
    tail_max = {int(T): max([0.0, *tail_ratios[i * tail_count:(i + 1) * tail_count]])
                for i, T in enumerate(tails)}
    return _report("fractional_embedding", spec, ratios, {"s": s, "p": p},
                   tail_max_ratio=tail_max, tail_count=tail_count)


def hausdorff_young_reports(spec: EnsembleSpec, ps=HY_PS, tol: float = 1e-6) -> list:
    """||u_hat||_lq <= ||u||_Lp(normalized measure) for 1 < p <= 2, constant 1;
    one report per p in ``ps``, in order.

    The ratio is reported for any p > 1; the known-constant contract (zero
    violations at 1 + tol) is asserted only inside (1, 2].  Every p is
    checked before the first field is drawn, and each field is drawn and
    synthesized once for all exponents.
    """
    ps = tuple(ps)
    if any(p <= 1.0 for p in ps):
        raise ValueError("p must be > 1")
    qs = [p / (p - 1.0) for p in ps]

    def trial(u):
        return [norm_lq(u, q) / (lp / Q_AREA ** (1.0 / p))
                for p, q, lp in zip(ps, qs, lp_norms(u, ps, spec.oversample))]

    ratios = _columns(_ensemble(trial, spec, "hy"), len(ps))
    reports = []
    for p, q, r in zip(ps, qs, ratios):
        violations = int(np.sum(np.asarray(r) > 1.0 + tol)) if p <= 2.0 else 0
        reports.append(_report("hausdorff_young", spec, r, {"p": p, "q": q, "tol": tol},
                               violations, constant=1.0, asserted=bool(p <= 2.0)))
    return reports


def check_hausdorff_young(spec: EnsembleSpec, p: float,
                          tol: float = 1e-6) -> InequalityReport:
    """The one-exponent case of ``hausdorff_young_reports``."""
    return hausdorff_young_reports(spec, (p,), tol)[0]


def check_box_regularity(spec: EnsembleSpec, p: float = 2.0,
                         gamma: float = 0.45) -> InequalityReport:
    """Holder proxy of the inverted wave operator against ||f_hat||_lq,
    q conjugate to p; the empirical shadow of the C^gamma estimate.

    The defaults p = 2 and gamma = 0.45 are the ``box`` suite's, used where
    the config sets no ``verify.p`` or ``verify.gamma``.  Under suite ``all``
    those keys are shared with
    ``hy``/``gn`` and ``holder``, so ``{"suite": "all", "p": 3}`` runs this
    at q = 1.5.
    """
    q = p / (p - 1.0)

    def ratio(f):
        w = solve_box(f).w
        return holder_estimate(w, gamma, spec.oversample) / norm_lq(f, q)

    ratios = _ensemble(ratio, spec, "box")
    return _report("box_inverse_holder", spec, ratios, {"p": p, "q": q, "gamma": gamma})


def check_holder_to_sobolev(spec: EnsembleSpec, gamma: float = HOLDER_GAMMAS[0],
                            gamma_prime: float = HOLDER_GAMMAS[1]) -> InequalityReport:
    """Quadrant Sobolev norms against the block Holder proxy, gamma' < gamma.

    Also verifies the exact quadrant identity: the squared l1-weight Sobolev
    norm equals the sum of the four quadrant norms squared.
    """
    if not 0.0 < gamma_prime < gamma < 1.0:
        raise ValueError("need 0 < gamma' < gamma < 1")

    def trial(u):
        h = holder_estimate(u, gamma, spec.oversample)
        # one quadrant field at a time: each is reduced before the next is made
        qn2 = [sobolev_norm(qf, gamma_prime, "ell1") ** 2 for qf in quadrants(u)]
        total = sobolev_norm(u, gamma_prime, "ell1") ** 2
        return [np.sqrt(n2) / h for n2 in qn2], abs(total - sum(qn2)) / max(total, 1e-300)

    rows = _ensemble(trial, spec, "holder")
    ratios = [r for quad_ratios, _ in rows for r in quad_ratios]
    identity_err = max([0.0, *(err for _, err in rows)])
    return _report("holder_to_sobolev", spec, ratios,
                   {"gamma": gamma, "gamma_prime": gamma_prime},
                   quadrant_identity_max_rel_err=identity_err)


def write_ratio_csv(report: InequalityReport, path) -> None:
    write_csv(path, ("trial", "ratio"), enumerate(report.extras.get("per_trial", [])))
