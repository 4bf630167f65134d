"""The wave operator dtt - dxx on the lattice: symbol, inversion, H^1 bound.

The operator is diagonal with symbol 4j^2 - k^2 on e^{i(2jx + kt)} and
vanishes exactly on the resonant lines, so inversion is coefficient
division off the kernel, where a right-hand side must lie (the test and
its tolerance are ``norms``').  The anisotropic H^1 weight (4j^2 + k^2)
divided by the squared symbol is <= 1 at every nonresonant integer mode,
with equality at (0, +-1); that makes the inverse an H^1 contraction of the
coefficient l2 norm with constant exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .norms import _kernel_mass, sobolev_norm
from .spectral import SpectralField, lattice


@dataclass(frozen=True)
class BoxSolveResult:
    w: SpectralField
    dropped_resonant_mass: float


def apply_box(u: SpectralField) -> SpectralField:
    """Multiply coefficient-wise by 4j^2 - k^2 (kernel modes map to zero)."""
    lat = lattice(u.M)
    return SpectralField(u.M, u.coeffs * lat.symbol)


def solve_box(f: SpectralField) -> BoxSolveResult:
    """Invert the wave operator off the kernel: w_hat = f_hat / (4j^2 - k^2).

    Raises NotInEperp where ``f`` fails the compatibility condition f _|_ N
    (``norms._kernel_mass``); below its tolerance the kernel mass is dropped
    and reported.
    """
    res_mass = _kernel_mass(f)
    lat = lattice(f.M)
    denom = np.where(lat.nonresonant, lat.symbol, 1).astype(np.float64)
    w = np.where(lat.nonresonant, f.coeffs / denom, 0.0)
    return BoxSolveResult(SpectralField(f.M, w), res_mass)


def h1_bound_ratio(f: SpectralField) -> float:
    """||box^{-1} f||_{H^1, aniso} / ||f_hat||_{l2}; always <= 1, sharp at (0,+-1).
    Stated for right-hand sides off the kernel: ``solve_box`` raises NotInEperp."""
    total = f.l2()
    if total == 0.0:
        return 0.0
    return sobolev_norm(solve_box(f).w, 1.0, "aniso") / total
