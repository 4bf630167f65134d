"""Fields as truncated Fourier lattices on the space-time torus.

A real field on Q = [0, pi) x [0, 2pi) is stored through complex
coefficients u_hat(j, k) against the modes e^{i(2jx + kt)}, truncated to
the diamond 2|j| + |k| <= M.  Realness is the Hermitian symmetry
u_hat(-j, -k) = conj(u_hat(j, k)).  The wave symbol 4j^2 - k^2 vanishes on
the two resonant lines k = +-2j; those modes form the kernel N, and the
rest splits into Eplus (|k| > 2|j|) and Eminus (|k| < 2|j|).

Normalization: u(x, t) = sum u_hat(j, k) e^{i(2jx + kt)} with
u_hat(j, k) = (1/|Q|) int_Q u e^{-i(2jx + kt)}, |Q| = 2 pi^2, so the
coefficient l2 norm satisfies Parseval with no extra factors.

``lattice(M)`` returns the cached, read-only ``Lattice`` of the diamond.
Its 2-D arrays are indexed [j + jmax, k + M] on the rectangle of shape
(2*(M//2) + 1, 2M + 1): J, K, weight (2|j| + |k|), symbol (4j^2 - k^2),
mask (the diamond), resonant (N) and nonresonant, eplus and eminus (with
N they partition the diamond), and half (k > 0, or k = 0 and j > 0).

A real field has n_real = 1 + 2 n_half real coordinates, one per diamond
mode.  ``pack`` lays them out as [Re u_hat(0, 0), Re h, Im h], h holding
the half-mode coefficients in row-major order (half_rows, half_cols).

Transforms: ``synthesize``/``synthesize_values`` and ``analyze``, which the
solver calls, run the 1-D passes of the complex ``np.fft.ifft2``/``fft2``,
pruned (Markel, IEEE Trans. Audio Electroacoust. 19(4), 1971): synthesis
transforms along t only the 2 jmax + 1 lattice rows, because the other
rows are zero, and analysis transforms along x only the 2M + 1 lattice
columns it keeps.  Each kept value is computed as ``ifft2``/``fft2``
computes it, so the results equal theirs bit for bit.  The grid rows and
columns of the lattice are cached per (M, nx, nt), read-only
(``_grid_index``), and ``analyze`` leaves the zeroing off the diamond to
``SpectralField``.  The solver stays on this complex path because its
Newton trajectories are sensitive to rounding: the real path flipped one
cold seed of the M = 24 multiplicity search.

The grid norms read |u| through ``abs_blocks``, which sends an exactly
Hermitian field through a pruned real inverse transform: numpy's ``ifft``
along t on the rows j >= 0, then the x pass as real matrix products with a
cached nx x 2(jmax + 1) cos/sin table (``_synthesis_table``), which reads
only the jmax + 1 nonzero rows.  It equals the complex path to about 1e-15
relative, and its last bits depend on numpy's FFT (pocketfft) and on the
BLAS build.  The x pass runs in row blocks of ``GRID_BLOCK`` grid values,
all written into one reused buffer, so a block is valid only until the
next one is requested; the L^p and sup norms reduce each block before the
next is made, and no full-grid array is built.
Every transform here is numpy's, so this module imports no scipy.

All operations are pure: fields are treated as immutable values.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import GridTooCoarse, NotHermitian

Q_AREA = 2.0 * np.pi**2  # |Q| = pi * 2pi

# grid values (float64) per row block of the grid norms' pass: small enough
# that no full grid is mapped and faulted in per field, large enough that the
# per-block Python turns, which hold the GIL, stay few (README, grid norms)
GRID_BLOCK = 32768

# the default oversampling: a grid side of OVERSAMPLE * min_grid(M), for the
# grid norms, the ensembles and the penalized problems alike
OVERSAMPLE = 4

DOMAIN_LABEL = "x:[0,pi],t:[0,2pi]"
NORMALIZATION_LABEL = "unit-modes"


class SubspaceTag(Enum):
    N = "N"
    EPLUS = "Eplus"
    EMINUS = "Eminus"
    EPERP = "Eperp"
    ALL = "All"


@dataclass(frozen=True, eq=False)
class Lattice:
    """Index arrays, subspace masks and packing maps of one diamond (see the
    module docstring); built once per M by ``lattice``."""

    M: int
    jmax: int
    shape: tuple
    n_modes: int
    n_half: int
    n_real: int
    J: np.ndarray
    K: np.ndarray
    weight: np.ndarray
    symbol: np.ndarray
    mask: np.ndarray
    resonant: np.ndarray
    nonresonant: np.ndarray
    eplus: np.ndarray
    eminus: np.ndarray
    half: np.ndarray
    half_rows: np.ndarray
    half_cols: np.ndarray


@lru_cache(maxsize=None)
def lattice(M: int) -> Lattice:
    """The cached Lattice of the truncation diamond 2|j| + |k| <= M."""
    if M < 0:
        raise ValueError("truncation must be nonnegative")
    jmax = M // 2
    shape = (2 * jmax + 1, 2 * M + 1)
    J = np.broadcast_to(np.arange(-jmax, jmax + 1)[:, None], shape)
    K = np.broadcast_to(np.arange(-M, M + 1)[None, :], shape)
    mask = 2 * np.abs(J) + np.abs(K) <= M
    res = mask & (4 * J * J == K * K)
    half = mask & ((K > 0) | ((K == 0) & (J > 0)))
    hr, hc = np.nonzero(half)
    arrays = dict(
        J=J, K=K, weight=2 * np.abs(J) + np.abs(K), symbol=4 * J * J - K * K,
        mask=mask, resonant=res, nonresonant=mask & ~res,
        eplus=mask & (np.abs(K) > 2 * np.abs(J)),
        eminus=mask & (np.abs(K) < 2 * np.abs(J)), half=half,
        half_rows=hr, half_cols=hc)
    for a in arrays.values():
        a.flags.writeable = False
    return Lattice(M=M, jmax=jmax, shape=shape, n_modes=int(np.sum(mask)),
                   n_half=hr.size, n_real=1 + 2 * hr.size, **arrays)


_TAG_MASK = {SubspaceTag.ALL: "mask", SubspaceTag.N: "resonant",
             SubspaceTag.EPERP: "nonresonant", SubspaceTag.EPLUS: "eplus",
             SubspaceTag.EMINUS: "eminus"}


def _tag_mask(M: int, tag: SubspaceTag) -> np.ndarray:
    return getattr(lattice(M), _TAG_MASK[SubspaceTag(tag)])


@dataclass(frozen=True)
class SpectralField:
    """Coefficients u_hat(j, k) on the diamond 2|j| + |k| <= M.

    ``coeffs`` has shape (2*(M//2) + 1, 2M + 1), indexed [j + M//2, k + M].
    Entries off the diamond are kept identically zero.  Fields are value-like;
    treat ``coeffs`` as read-only.
    """

    M: int
    coeffs: np.ndarray

    def __post_init__(self):
        lat = lattice(self.M)
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != lat.shape:
            raise ValueError(f"coeffs shape {c.shape} != lattice shape {lat.shape}")
        c = np.where(lat.mask, c, 0.0 + 0.0j)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zeros(cls, M: int) -> "SpectralField":
        return cls(M, np.zeros(lattice(M).shape, dtype=np.complex128))

    @classmethod
    def from_modes(cls, M: int, modes, hermitian: bool = True) -> "SpectralField":
        """Build a field from ``{(j, k): amplitude}`` entries.

        With ``hermitian=True`` each entry also sets the conjugate at
        (-j, -k), so a single entry per conjugate pair yields a real field.
        """
        lat = lattice(M)
        c = np.zeros(lat.shape, dtype=np.complex128)
        items = modes.items() if hasattr(modes, "items") else modes
        for (j, k), a in items:
            if 2 * abs(j) + abs(k) > M:
                raise ValueError(f"mode ({j},{k}) outside diamond of size {M}")
            c[j + lat.jmax, k + M] += a
            if hermitian and (j, k) != (0, 0):
                c[-j + lat.jmax, -k + M] += np.conj(a)
        return cls(M, c)

    def get(self, j: int, k: int) -> complex:
        lat = lattice(self.M)
        if abs(j) > lat.jmax or abs(k) > self.M:
            return 0.0 + 0.0j
        return complex(self.coeffs[j + lat.jmax, k + self.M])

    def l2(self) -> float:
        """Coefficient l2 norm (sqrt of sum of |u_hat|^2)."""
        return float(np.linalg.norm(self.coeffs))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        flipped = np.conj(self.coeffs[::-1, ::-1])
        scale = max(np.max(np.abs(self.coeffs)), 1e-300)
        return bool(np.max(np.abs(self.coeffs - flipped)) <= tol * scale)

    # -- value-style arithmetic (fields unified to the larger diamond) ------

    def __add__(self, other):
        a, b = unify(self, other)
        return SpectralField(a.M, a.coeffs + b.coeffs)

    def __sub__(self, other):
        a, b = unify(self, other)
        return SpectralField(a.M, a.coeffs - b.coeffs)

    def __neg__(self):
        return SpectralField(self.M, -self.coeffs)

    def __mul__(self, c):
        return SpectralField(self.M, self.coeffs * complex(c))

    __rmul__ = __mul__


def unify(a: SpectralField, b: SpectralField):
    """Both fields on the larger of their two diamonds."""
    if a.M == b.M:
        return a, b
    M = max(a.M, b.M)
    return embed(a, M), embed(b, M)


@dataclass(frozen=True)
class GridField:
    """Real float64 samples, shape (nx, nt), on the uniform grid
    x_a = a pi/nx, t_b = 2 pi b/nt: what ``synthesize`` returns and
    ``analyze`` reads."""

    values: np.ndarray


def cell_area(nx: int, nt: int) -> float:
    """Area (pi/nx)(2 pi/nt) of one cell of the nx x nt grid."""
    return (np.pi / nx) * (2.0 * np.pi / nt)


def grid_integral(values: np.ndarray) -> float:
    """int_Q of grid samples by the rectangle rule: their sum times
    ``cell_area``."""
    return float(np.sum(values)) * cell_area(*values.shape)


def pack(u: SpectralField) -> np.ndarray:
    """Real coordinates [Re u_hat(0, 0), Re h, Im h] of a Hermitian field."""
    lat = lattice(u.M)
    h = u.coeffs[lat.half_rows, lat.half_cols]
    return np.concatenate(([u.coeffs[lat.jmax, u.M].real], h.real, h.imag))


def unpack(vec: np.ndarray, M: int) -> SpectralField:
    """The Hermitian field with packed coordinates ``vec``; inverse of ``pack``."""
    lat = lattice(M)
    c = np.zeros(lat.shape, dtype=np.complex128)
    c[lat.jmax, M] = vec[0]
    h = vec[1:1 + lat.n_half] + 1j * vec[1 + lat.n_half:]
    c[lat.half_rows, lat.half_cols] = h
    c[2 * lat.jmax - lat.half_rows, 2 * M - lat.half_cols] = np.conj(h)
    return SpectralField(M, c)


def min_grid(M: int) -> int:
    """Smallest admissible grid side for truncation M (Nyquist with margin)."""
    return 2 * M + 2


def default_grid(M: int, oversample: int = OVERSAMPLE) -> int:
    """Grid side at the given oversampling factor over Nyquist."""
    return oversample * min_grid(M)


def _require_grid(M: int, nx: int, nt: int) -> None:
    if nx < min_grid(M) or nt < min_grid(M):
        raise GridTooCoarse(f"grid {nx}x{nt} < {min_grid(M)} for M={M}")


@lru_cache(maxsize=None)
def _grid_index(M: int, nx: int, nt: int):
    """The cached, read-only grid rows j mod nx of the lattice rows and grid
    columns k mod nt of the lattice columns, at which the transforms place
    and read the coefficients."""
    lat = lattice(M)
    rows, cols = lat.J[:, 0] % nx, lat.K[0] % nt
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def analyze(g: GridField, M: int) -> SpectralField:
    """Coefficients of the trigonometric interpolant, restricted to the diamond.

    Exact (to roundoff) whenever ``g`` samples a trigonometric polynomial of
    bandwidth <= M in the lattice weight.
    """
    nx, nt = g.values.shape
    _require_grid(M, nx, nt)
    rows, cols = _grid_index(M, nx, nt)
    # fft2 pruned: fft along t, then fft along x on the 2M + 1 lattice columns
    # only; SpectralField zeroes the entries off the diamond
    F = np.fft.fft(np.fft.fft(g.values, axis=1)[:, cols], axis=0)
    return SpectralField(M, F[rows] / (nx * nt))


def synthesize_values(u: SpectralField, nx: int, nt: int) -> np.ndarray:
    """Complex grid samples of the (possibly non-Hermitian) field."""
    _require_grid(u.M, nx, nt)
    rows, cols = _grid_index(u.M, nx, nt)
    # ifft2 pruned: the rows off the lattice are zero, so ifft along t runs on
    # the 2 jmax + 1 lattice rows only, then ifft along x on every row
    A = np.zeros((rows.size, nt), dtype=np.complex128)
    A[:, cols] = u.coeffs
    B = np.zeros((nx, nt), dtype=np.complex128)
    B[rows] = np.fft.ifft(A, axis=1)
    C = np.fft.ifft(B, axis=0)
    # B goes before the scaled copy is made, so two grids are alive, not
    # three.  Scaling C in place instead raised verify's peak RSS through
    # glibc's dynamic mmap threshold
    del B
    return C * (nx * nt)


@lru_cache(maxsize=None)
def _synthesis_table(jmax: int, nx: int) -> np.ndarray:
    """The cached, read-only nx x 2(jmax + 1) table
    [w_j cos(2 pi j a / nx) | -w_j sin(2 pi j a / nx)], w_0 = 1 and w_j = 2,
    of the x pass of ``_hermitian_values``; row a is grid point x_a."""
    j = np.arange(jmax + 1)
    angle = (2.0 * np.pi / nx) * (np.arange(nx)[:, None] * j % nx)
    w = np.where(j == 0, 1.0, 2.0)
    table = np.concatenate((w * np.cos(angle), -w * np.sin(angle)), axis=1)
    table.flags.writeable = False
    return table


def _hermitian_values(u: SpectralField, nx: int, nt: int):
    """Real grid samples of an exactly Hermitian field by the pruned transform,
    yielded as consecutive row blocks of about ``GRID_BLOCK`` values.

    Only the rows j >= 0 are transformed along t.  The x pass of a block is
    one real product of its rows of ``_synthesis_table`` with the t-pass
    coefficients: u(x_a, .) = sum_j w_j Re(A_j e^{2 pi i j a / nx}) restores
    the rows j < 0 from the symmetry and skips the rows above jmax, which
    are zero.  Every block is written into one buffer that serves the whole
    grid, so a block is valid only until the next one is requested.  The x
    pass holds that buffer and the real t-pass coefficients C alone.
    """
    _require_grid(u.M, nx, nt)
    jmax = lattice(u.M).jmax
    A = np.zeros((jmax + 1, nt), dtype=np.complex128)
    A[:, np.arange(-u.M, u.M + 1) % nt] = u.coeffs[jmax:]
    A = np.fft.ifft(A, axis=1, norm="forward")
    C = np.concatenate((A.real, A.imag))
    # this generator's frame keeps every local alive until the last block, so
    # drop the complex t-pass result, which C now holds, before the x pass
    del A
    table = _synthesis_table(jmax, nx)
    rows = max(1, GRID_BLOCK // nt)
    buf = np.empty((min(rows, nx), nt))
    for a in range(0, nx, rows):
        block = buf[:min(rows, nx - a)]
        np.matmul(table[a:a + rows], C, out=block)
        yield block


def abs_blocks(u: SpectralField, nx: int, nt: int):
    """|u| on the nx x nt grid as consecutive row blocks: the one grid pass
    of the L^p and sup norms, which reduce it block by block.

    An exactly Hermitian field takes the pruned real transform
    (``_hermitian_values``), whose blocks take their absolute value in
    place; a block is valid only until the next one is requested.  Any
    other field, e.g. a sign-quadrant piece, takes the complex
    ``synthesize_values`` as a single block.
    """
    c = u.coeffs
    if np.array_equal(c, np.conj(c[::-1, ::-1])):
        for v in _hermitian_values(u, nx, nt):
            yield np.abs(v, out=v)
    else:
        yield np.abs(synthesize_values(u, nx, nt))


def synthesize(u: SpectralField, nx: int, nt: int) -> GridField:
    """Real grid samples; raises NotHermitian if the field is not real-valued."""
    vals = synthesize_values(u, nx, nt)
    scale = u.l2()
    if np.max(np.abs(vals.imag)) > 1e-12 * max(scale, 1e-300):
        raise NotHermitian("imaginary residue exceeds 1e-12 of coefficient norm")
    return GridField(vals.real)


def grid_max_abs(u: SpectralField, oversample: int = OVERSAMPLE) -> float:
    """Grid maximum of |u| at the given oversampling (lower bound on the sup)."""
    n = default_grid(u.M, oversample)
    return max(float(np.max(a)) for a in abs_blocks(u, n, n))


def project(u: SpectralField, tag: SubspaceTag) -> SpectralField:
    """Zero all coefficients outside the tagged mode set."""
    return SpectralField(u.M, np.where(_tag_mask(u.M, tag), u.coeffs, 0.0))


def truncate(u: SpectralField, M_new: int) -> SpectralField:
    """Keep modes with 2|j| + |k| <= M_new.  Identity when M_new >= M."""
    if M_new >= u.M:
        return u
    lat_old = lattice(u.M)
    lat_new = lattice(M_new)
    jm_o, jm_n = lat_old.jmax, lat_new.jmax
    window = u.coeffs[jm_o - jm_n:jm_o + jm_n + 1, u.M - M_new:u.M + M_new + 1]
    return SpectralField(M_new, window)


def embed(u: SpectralField, M_new: int) -> SpectralField:
    """Re-index into a larger diamond (coefficients unchanged)."""
    if M_new < u.M:
        raise ValueError("embed target must be >= current truncation")
    if M_new == u.M:
        return u
    lat_old = lattice(u.M)
    lat_new = lattice(M_new)
    c = np.zeros(lat_new.shape, dtype=np.complex128)
    jm_o, jm_n = lat_old.jmax, lat_new.jmax
    c[jm_n - jm_o:jm_n + jm_o + 1, M_new - u.M:M_new + u.M + 1] = u.coeffs
    return SpectralField(M_new, c)


def time_translate(u: SpectralField, theta: float) -> SpectralField:
    """u(x, t) -> u(x, t + theta): multiply u_hat(j, k) by e^{i k theta}."""
    lat = lattice(u.M)
    return SpectralField(u.M, u.coeffs * np.exp(1j * theta * lat.K))


def random_field(seed, M: int, tag: SubspaceTag = SubspaceTag.ALL,
                 decay: float = 0.0) -> SpectralField:
    """Deterministic random real field supported on ``tag``.

    Magnitudes follow |u_hat(j, k)| = e^{-decay (2|j| + |k|)} exactly; phases
    are uniform.  ``seed`` may be an int or a tuple of ints.
    """
    if decay < 0:
        raise ValueError("decay must be >= 0")
    lat = lattice(M)
    rng = np.random.default_rng(seed)
    # a phase for every rectangle entry, so each seed keeps its field; only
    # the half modes' phases are read
    phases = rng.uniform(0.0, 2.0 * np.pi, size=lat.shape)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    hr, hc = lat.half_rows, lat.half_cols
    h = np.exp(-decay * lat.weight[hr, hc]) * np.exp(1j * phases[hr, hc])
    return project(unpack(np.concatenate(([sign], h.real, h.imag)), M), tag)


# -- field file format ------------------------------------------------------


def field_to_dict(u: SpectralField) -> dict:
    """Half-lattice JSON form: entries with k > 0 or (k = 0 and j >= 0)."""
    if not u.is_hermitian():
        raise NotHermitian("field file format stores real fields only")
    lat = lattice(u.M)
    keep = lat.mask & ((lat.K > 0) | ((lat.K == 0) & (lat.J >= 0)))
    entries = [{"j": int(j), "k": int(k), "re": float(a.real), "im": float(a.imag)}
               for j, k, a in zip(lat.J[keep], lat.K[keep], u.coeffs[keep]) if a != 0]
    return {
        "M": u.M,
        "domain": DOMAIN_LABEL,
        "normalization": NORMALIZATION_LABEL,
        "coeffs": entries,
    }


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    """A finite number: json.load reads Infinity, NaN and 1e400 as non-finite floats."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def field_from_dict(d: dict) -> SpectralField:
    """The field of ``field_to_dict``'s form; M, j, k must be integers, re, im finite numbers."""
    if not isinstance(d, dict):
        raise ValueError("a field file holds one JSON object")
    if d.get("domain") != DOMAIN_LABEL:
        raise ValueError(f"unexpected domain {d.get('domain')!r}")
    if d.get("normalization") != NORMALIZATION_LABEL:
        raise ValueError(f"unexpected normalization {d.get('normalization')!r}")
    M = d["M"]
    if not _is_int(M):
        raise ValueError(f"M must be an integer (got {M!r})")
    modes = {}
    for i, e in enumerate(d["coeffs"]):
        j, k = e["j"], e["k"]
        if not (_is_int(j) and _is_int(k)):
            raise ValueError(f"coeffs[{i}]: j and k must be integers (got {j!r}, {k!r})")
        if not (k > 0 or (k == 0 and j >= 0)):
            raise ValueError(f"entry ({j},{k}) is not in the stored half lattice")
        if (j, k) in modes:
            raise ValueError(f"entry ({j},{k}) appears twice")
        for part, v in (("re", e["re"]), ("im", e["im"])):
            if not _is_num(v):
                raise ValueError(f"entry ({j},{k}) is not finite" if isinstance(v, float) else
                                 f"entry ({j},{k}): {part} must be a finite number (got {v!r})")
        modes[(j, k)] = complex(e["re"], e["im"])
    u = SpectralField.from_modes(M, modes, hermitian=True)
    if not u.is_hermitian():  # the test field_to_dict applies: only (0,0) can fail it
        raise ValueError("entry (0,0) of a real field must have im = 0")
    return u


def write_field(u: SpectralField, path) -> None:
    write_json(path, field_to_dict(u))


def read_field(path) -> SpectralField:
    with open(path) as fh:
        return field_from_dict(json.load(fh))


def write_csv(path, header, rows) -> None:
    """Write a table: the header line, then one line per row.

    Every CSV artifact is written here, in the ``csv`` module's format:
    ``\\r\\n`` line ends, quoting only where needed, and floats (numpy
    scalars included) as ``repr`` of the float.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _finite_or_none(value):
    """``value`` with every non-finite float in it replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload) -> None:
    """Write one JSON artifact (report, field file), as every one is written:
    keys sorted, a one-space indent, a final ``\\n``, and every non-finite
    float (``np.float64`` included) as ``null``, so the file is strict JSON."""
    with open(path, "w") as fh:
        json.dump(_finite_or_none(payload), fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")
