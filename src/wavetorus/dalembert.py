"""The wave operator dtt - dxx on the lattice: symbol, inversion, H^1 bound.

The operator is diagonal with symbol 4j^2 - k^2 on e^{i(2jx + kt)} and
vanishes exactly on the resonant lines, so inversion is coefficient
division off the kernel.  The anisotropic H^1 weight (4j^2 + k^2) divided
by the squared symbol is <= 1 at every nonresonant integer mode, with
equality at (0, +-1); that makes the inverse an H^1 contraction of the
coefficient l2 norm with constant exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInEperp, ResonantMass
from .norms import _resonant_fraction, sobolev_norm
from .spectral import SpectralField, lattice


@dataclass(frozen=True)
class BoxSolveResult:
    w: SpectralField
    dropped_resonant_mass: float


def apply_box(u: SpectralField) -> SpectralField:
    """Multiply coefficient-wise by 4j^2 - k^2 (kernel modes map to zero)."""
    lat = lattice(u.M)
    return SpectralField(u.M, u.coeffs * lat.symbol)


def solve_box(f: SpectralField, resonant_tol: float = 1e-10) -> BoxSolveResult:
    """Invert the wave operator off the kernel: w_hat = f_hat / (4j^2 - k^2).

    Raises ResonantMass when the relative l2 mass of ``f`` on the kernel
    exceeds ``resonant_tol`` (the compatibility condition f _|_ N fails);
    below the tolerance that mass is dropped and reported.
    """
    res_mass, rel = _resonant_fraction(f)
    if rel > resonant_tol:
        raise ResonantMass(f"relative kernel mass {rel:.3e} > {resonant_tol:g}")
    lat = lattice(f.M)
    denom = np.where(lat.nonresonant, lat.symbol, 1).astype(np.float64)
    w = np.where(lat.nonresonant, f.coeffs / denom, 0.0)
    return BoxSolveResult(SpectralField(f.M, w), res_mass)


def h1_bound_ratio(f: SpectralField) -> float:
    """||box^{-1} f||_{H^1, aniso} / ||f_hat||_{l2}; always <= 1, sharp at (0,+-1)."""
    total = f.l2()
    if total == 0.0:
        return 0.0
    if _resonant_fraction(f)[1] > 1e-12:
        raise NotInEperp("H^1 bound is stated for right-hand sides off the kernel")
    w = solve_box(f, resonant_tol=1e-12).w
    return sobolev_norm(w, 1.0, "aniso") / total
