"""Norms and dyadic machinery on lattice fields.

Covers the energy norm E, its fractional scale E^s, two Sobolev weight
conventions, grid L^p norms, coefficient l^q norms, dyadic annuli in the
lattice weight 2|j| + |k|, the block (Holder-Zygmund) estimator for the
C^gamma norm, and sign-quadrant splits.

It holds the one off-kernel test (``_kernel_mass``, at ``OFF_KERNEL_TOL``)
that ``norm_Es`` and ``dalembert.solve_box`` apply, and the one rule for a
power sum that leaves the normal range (``_rescale_exponent``) that
``lp_norms`` and ``norm_lq`` apply.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotInEperp
from .spectral import (
    OVERSAMPLE,
    Q_AREA,
    SpectralField,
    abs_blocks,
    cell_area,
    default_grid,
    grid_max_abs,
    lattice,
    truncate,
    write_csv,
)


_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64


def norm_E(u: SpectralField) -> float:
    """Energy norm: (|Q|/4)|k^2 - 4j^2| off resonance, 4j^2 on it, 1 at (0,0)."""
    lat = lattice(u.M)
    a2 = np.abs(u.coeffs) ** 2
    off = np.sum(np.abs(lat.symbol)[lat.nonresonant] * a2[lat.nonresonant]) * (Q_AREA / 4.0)
    res = np.sum((4 * lat.J * lat.J)[lat.resonant] * a2[lat.resonant])
    const = a2[lat.jmax, u.M]
    return float(np.sqrt(off + res + const))


OFF_KERNEL_TOL = 1e-12  # the relative kernel mass above which a field is not off the kernel


def _kernel_mass(u: SpectralField) -> float:
    """||P_N u_hat||, the l2 mass of u on the kernel N of the wave operator
    (the resonant lines), whose vanishing is the compatibility condition
    f _|_ N of inverting it; the one off-kernel test.  Raises NotInEperp
    where that mass exceeds OFF_KERNEL_TOL of ||u_hat|| (taken as at least
    1e-300, so the zero field passes)."""
    res = float(np.linalg.norm(u.coeffs[lattice(u.M).resonant]))
    if (rel := res / max(u.l2(), 1e-300)) > OFF_KERNEL_TOL:
        raise NotInEperp(f"relative kernel mass {rel:.3e} > {OFF_KERNEL_TOL:g}")
    return res


def norm_Es(u: SpectralField, s: float) -> float:
    """Fractional energy norm (sum |u_hat|^2 |k^2 - 4j^2|^s)^(1/2), 0 < s <= 1.

    Defined off the kernel only: raises NotInEperp (``_kernel_mass``).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("s must lie in (0, 1]")
    _kernel_mass(u)
    lat = lattice(u.M)
    a2 = np.abs(u.coeffs[lat.nonresonant]) ** 2
    w = np.abs(lat.symbol[lat.nonresonant]).astype(np.float64) ** s
    return float(np.sqrt(np.sum(w * a2)))


def sobolev_norm(u: SpectralField, s: float, convention: str = "aniso") -> float:
    """Weighted coefficient norm (sum w^s |u_hat|^2)^(1/2).

    convention "aniso":  w = 4j^2 + k^2;   convention "ell1": w = (2|j| + |k|)^2.
    The (0, 0) mode gets weight 1 in both conventions.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    lat = lattice(u.M)
    if convention == "aniso":
        w = (4 * lat.J * lat.J + lat.K * lat.K).astype(np.float64)
    elif convention == "ell1":
        w = (lat.weight.astype(np.float64)) ** 2
    else:
        raise ValueError(f"unknown convention {convention!r}")
    w = w.copy()
    w[lat.jmax, u.M] = 1.0
    a2 = np.abs(u.coeffs) ** 2
    return float(np.sqrt(np.sum((w[lat.mask] ** s) * a2[lat.mask])))


def _check_exponents(name: str, ps) -> None:
    if any(not (1 <= p < math.inf) for p in ps):
        raise ValueError(f"{name} must be a finite number >= 1")


def _power_sum(a: np.ndarray, p: float) -> float:
    """Sum of a**p over the nonnegative block a.  At p = 4/3, 1.5, 2, 3 and 4
    it is a BLAS dot of two factors of a**p (cbrt(a) . a, sqrt(a) . a,
    a . a, (a a) . a, (a a) . (a a)), equal to the sum of ``a**p`` to
    rounding and free of the slower pow; any other p sums ``a**p``."""
    v = a.ravel()
    if p == 2:
        return float(v @ v)
    if p in (3, 4):
        t = v * v
        return float(t @ (t if p == 4 else v))
    if p in (1.5, 4.0 / 3.0):
        return float((np.sqrt(v) if p == 1.5 else np.cbrt(v)) @ v)
    return float(np.sum(v**p))


def _rescale_exponent(sums, coeffs) -> int:
    """The one rule for a power sum that leaves the normal range (0,
    subnormal or inf), as |u|^p does for small values at large p: 0 where
    every sum of ``sums`` is normal, or the field of ``coeffs`` is zero or
    not finite; else e, with the largest coefficient's modulus in
    [2^(e-1), 2^e).  The caller then sums again over the field times 2^-e
    and scales each norm back by 2^e, both exact scalings.  The largest
    term is then at least 2^-p, so this holds for p up to about 1000."""
    if all(_TINY <= s < math.inf for s in sums):
        return 0
    top = float(np.max(np.abs(coeffs), initial=0.0))
    return math.frexp(top)[1] if 0.0 < top < math.inf else 0


def _lp_sums(u: SpectralField, ps, n: int) -> list:
    """[sum of |u|^p over the n x n grid for p in ps], in one blocked pass."""
    sums = [0.0] * len(ps)
    for a in abs_blocks(u, n, n):
        for i, p in enumerate(ps):
            sums[i] += _power_sum(a, p)
    return sums


def lp_norms(u: SpectralField, ps, oversample: int = OVERSAMPLE) -> list:
    """[(int_Q |u|^p)^(1/p) for p in ps] by the rectangle rule of
    ``grid_integral`` on an oversampled grid (on a periodic grid it equals
    the trapezoid rule).

    One blocked pass serves all exponents: the field is synthesized once,
    in the row blocks of ``abs_blocks``, and each block adds its sum of
    |u|^p for every p before the next is made, so no full-grid array is
    built; no exponents make no pass.  Every p is checked before that; a
    non-finite p raises ValueError.  A block's sum of |u|^p is
    ``_power_sum``: a dot product at p = 4/3, 1.5, 2, 3 and 4 (equal to the
    sum of ``a**p`` to rounding), the sum of ``a**p`` at any other p.
    Where a sum leaves the normal range, the pass is made again on the
    field scaled by a power of two (``_rescale_exponent``, as ``norm_lq``).
    """
    ps = tuple(ps)
    _check_exponents("p", ps)
    if not ps:
        return []
    n = default_grid(u.M, oversample)
    sums = _lp_sums(u, ps, n)
    e = _rescale_exponent(sums, u.coeffs)
    if e:  # ldexp of the real and imaginary parts: exact at any e
        sums = _lp_sums(SpectralField(u.M, np.ldexp(u.coeffs.view(np.float64), -e)
                                      .view(np.complex128)), ps, n)
    cell = cell_area(n, n)
    return [float(np.ldexp((s * cell) ** (1.0 / p), e)) for s, p in zip(sums, ps)]


def norm_Lp(u: SpectralField, p: float, oversample: int = OVERSAMPLE) -> float:
    """(int_Q |u|^p)^(1/p): the one-exponent case of ``lp_norms``.  To read
    several exponents of one field, call ``lp_norms``, which serves them all
    from one blocked pass."""
    return lp_norms(u, (p,), oversample)[0]


def norm_lq(u: SpectralField, q: float) -> float:
    """Coefficient norm (sum |u_hat|^q)^(1/q); a non-finite q raises ValueError.

    Where that sum leaves the normal range for a nonzero field, as
    |u_hat|^q does for small coefficients at large q, it is summed again
    over the field scaled by a power of two (``_rescale_exponent``), so this
    holds for q up to about 1000 (p = q/(q-1) down to about 1.001).
    """
    _check_exponents("q", (q,))
    a = np.abs(u.coeffs[lattice(u.M).mask])
    total = np.sum(a**q)
    e = _rescale_exponent((total,), a)
    if e:
        total = np.sum(np.ldexp(a, -e) ** q)
    return float(np.ldexp(total ** (1.0 / q), e))


def block_index(w: int) -> int:
    """Dyadic block of lattice weight w: block 0 holds w <= 2, block m holds
    2*2^(m-1) < w <= 2*2^m."""
    if w <= 2:
        return 0
    return int(w - 1).bit_length() - 1


def _annulus(u: SpectralField, m: int) -> SpectralField:
    """Delta_m u: the modes of u in block m (see ``block_index``), on u's own
    lattice; the one definition of the annulus bounds."""
    lat = lattice(u.M)
    lo = -1 if m == 0 else 2 * 2 ** (m - 1)  # block 0 keeps weight 0 too
    sel = lat.mask & (lat.weight > lo) & (lat.weight <= 2 * 2**m)
    return SpectralField(u.M, np.where(sel, u.coeffs, 0.0))


def dyadic_blocks(u: SpectralField) -> tuple:
    """Disjoint dyadic annuli ((m, Delta_m u), ...) for m = 0 .. block_index(M),
    all on the lattice of u and held at once; the blocks sum back to u."""
    return tuple((m, _annulus(u, m)) for m in range(block_index(max(u.M, 1)) + 1))


def holder_estimate(u: SpectralField, gamma: float, oversample: int = OVERSAMPLE) -> float:
    """Block proxy for the C^gamma norm: max_m 2^(gamma m) * sup |Delta_m u|.

    Block suprema are grid maxima (``grid_max_abs``) at the given
    oversampling, so the result is a lower bound on the true sup with
    spectral-accuracy gap.  Block m is cut from ``truncate(u, min(2*2^m, M))``,
    the smallest diamond that holds it, and reduced before the next is built,
    so only the top block is as large as u.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    best = 0.0
    for m in range(block_index(max(u.M, 1)) + 1):
        f = _annulus(truncate(u, min(2 * 2**m, u.M)), m)
        if not np.any(f.coeffs):
            continue
        best = max(best, 2.0 ** (gamma * m) * grid_max_abs(f, oversample))
    return best


def quadrants(u: SpectralField):
    """Sign-quadrant split (u++, u+-, u-+, u--) by (sign j, sign k), made one
    at a time, so a caller that reduces each before asking for the next holds
    one.

    Quadrants partition the lattice: j >= 0 vs j < 0 and k >= 0 vs k < 0.
    The pieces are genuinely complex (Hermitian symmetry intentionally broken)
    but their disjoint supports make coefficient-space identities exact.
    """
    lat = lattice(u.M)
    jp, kp = lat.J >= 0, lat.K >= 0
    for sel in (jp & kp, jp & ~kp, ~jp & kp, ~jp & ~kp):
        yield SpectralField(u.M, np.where(sel, u.coeffs, 0.0))


@dataclass(frozen=True)
class NormReport:
    name: str
    value: float
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("norm value must be >= 0")

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "params": dict(self.parameters)}


def write_norm_reports_csv(reports, path) -> None:
    write_csv(path, ("name", "value", "params"),
              ([r.name, r.value, json.dumps(r.parameters, sort_keys=True)] for r in reports))
