"""Penalized Galerkin systems on the truncated lattice.

Unknown u = w + v splits into the off-kernel part w and the kernel part v.
The residual of the penalized system is, in coefficient space,

    off kernel:  (4j^2 - k^2) w_hat - sigma f_hat(x, u) - forcing_hat
    on kernel:   beta (-k^2 - 1) v_hat - sigma f_hat(x, u) - forcing_hat

i.e. box w = sigma P_perp f and beta (v_tt - v) = sigma P_N f, plus an
optional bandlimited forcing used by the manufactured-solution harness.
f(x, u) is evaluated pseudospectrally on a padded grid (dealiasing factor
at least s + 1 over the truncation) and truncated back to the lattice.

The functional whose gradient under the area-weighted pairing
<A, phi> = |Q| sum A_hat conj(phi_hat) equals this residual is

    I(u) = kappa/2 (||w+||_E^2 - ||w-||_E^2)
           - beta/2 (||v||_L2^2 + ||v_t||_L2^2) - sigma int_Q F(x, u)
           - int_Q forcing u,            with kappa = -4.

kappa = -4 is forced by the E-norm scaling |Q|/4: it is the unique constant
making gradient and residual agree identically, for either sign convention.

Beside the Newton solve and the continuation in beta sit the studies that
drive them: the manufactured-solution study (``mms_problem``, ``mms_run``),
whose forcing makes a random target an exact root, and the a priori monitor
of a continuation (``apriori_monitor``), which reads the quantities
``monitored_quantities`` stores in each trace row.

The Newton step factors the block of J over the coarse modes with
``dgetrf`` and ``dgetrs`` on ``pool.lapack()`` (``pool.BundledOpenBLAS``,
the ``ctypes`` binding of the bundled OpenBLAS of ``pool.LU_PACKAGE``,
scipy's, which ``multi_seed_search``'s pool also pins, opened on the first
solve, so no scipy module).  Up to ``DENSE_LIMIT`` unknowns that block is
all of J and its solve is the step; above it fine modes remain, and the
package's own restarted GMRES (``_gmres``) takes that solve as its
preconditioner.  So where the bundled
OpenBLAS is found, the Newton step loads no scipy module at any size, and
only ``linking_report`` imports one (``scipy.optimize``, inside the
function); importing the package and every command but ``linking`` load
none.
``multi_seed_search`` runs its seed ladder on the package's one thread pool
(``pool.share_work``).  The searches state their defaults in their
signatures, which the ``multi`` and ``linking`` commands keep where a config
sets no key: 16 seeds, and the levels ``LINKING_LEVELS``.

``newton_solve``'s signature states the Newton defaults once (tol 1e-10,
``max_iter`` 40, the line search on).  The drivers forward Newton's keywords
to it unchanged and restate only a value of their own: a search's budget,
``max_iter`` 60 in ``multi_seed_search``, and the manufactured-solution
study's tol 1e-12 and ``max_iter`` 25 in ``mms_run``; ``continuation_beta``
states none.

A Newton iterate is synthesized on the padded grid once: the residual that
accepted it leaves its grid samples to the next step, which forms f_u(x, u)
from them once, at every size, for the Jacobian fill, the Jacobi diagonal
and the GMRES's products (``_linear_solver``).
A table that depends only on the problem is cached read-only, as
``lattice`` is, where a hit saves at least 1% of the call it serves: the
penalized symbol per (M, beta), the nonlinearity's a(x) and b(x) on the
padded grid (``nonlinearity.grid_profiles``) and the transforms' grid
positions of the lattice rows and columns.  The padded grid's side and the
fill's gather positions are computed on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, SingularJacobian, StallAt
from .norms import norm_E, sobolev_norm
from .pool import LU_PACKAGE, lapack, share_work
from .spectral import (
    OVERSAMPLE,
    Q_AREA,
    GridField,
    SpectralField,
    SubspaceTag,
    analyze,
    embed,
    grid_integral,
    grid_max_abs,
    lattice,
    min_grid,
    pack,
    project,
    random_field,
    synthesize,
    synthesize_values,
    truncate,
    unify,
    unpack,
    write_csv,
)

KAPPA = -4.0

DENSE_LIMIT = 4400  # real unknowns; M = 64 has 4161
# above DENSE_LIMIT the Newton step factors the block of the modes of
# weight <= M // _COARSE_DIVISOR, the coarse half of the GMRES preconditioner
_COARSE_DIVISOR = 4
_INNER_M = 50  # GMRES's Krylov vectors per restart
PHASE_GRID = 4096  # scan points of max_time_correlation
# entries per row panel of the dense Jacobian fill, complex128; the M = 24
# fill is slower with half or twice as many, and slower still in one panel
_PANEL_ENTRIES = 16384


@dataclass(frozen=True)
class PenalizedProblem:
    M: int
    beta: float
    nl: object
    sigma: int = 1
    forcing: SpectralField | None = None
    oversample: int = OVERSAMPLE

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("penalty beta must be > 0")
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        if self.forcing is not None and self.forcing.M != self.M:
            raise ValueError("forcing must be bandlimited to the problem truncation")


@dataclass(frozen=True)
class SolutionState:
    u: SpectralField
    residual_norm: float
    I_value: float
    newton_iters: int
    residual_history: tuple = ()
    converged: bool = True


def _grid_side(p: PenalizedProblem) -> int:
    """Side of the padded grid of ``p``: the dealiasing side, and at least
    ``min_grid(2M)``, as the Jacobian's ``analyze(..., 2M)`` needs (at
    s >= 3 the dealiasing side already exceeds it)."""
    s = float(getattr(p.nl, "s", 3.0))
    deg = 0
    for part in ("a", "b"):
        poly = getattr(p.nl, part, None)
        deg = max(deg, getattr(poly, "degree", 0))
    factor = max(int(np.ceil(s)) + 1, p.oversample)
    n = factor * (p.M + 1) + 2 * deg + 2
    return max(n, min_grid(2 * p.M))


def _on_grid(p: PenalizedProblem, u: SpectralField, *orders, samples=None):
    """Samples U of u on the padded grid, then f^(order)(x, U) per order ("F": F(x, U)).

    U is taken out of ``samples`` when that list holds it (see ``residual``),
    and synthesized otherwise.  x is passed as the grid side n, so the
    nonlinearity reads its cached profiles on the grid.
    """
    n = _grid_side(p)
    U = samples.pop() if samples else synthesize(u, n, n).values
    return (U, *(p.nl.potential_values(n, U) if o == "F" else p.nl.values(n, U, o)
                 for o in orders))


def penalized_symbol(p: PenalizedProblem) -> np.ndarray:
    """Diagonal of the linear part on the lattice: 4j^2 - k^2 off the kernel,
    beta (-k^2 - 1) on it; cached and read-only, one array per (M, beta)."""
    return _symbol(p.M, p.beta)


@lru_cache(maxsize=64)
def _symbol(M: int, beta: float) -> np.ndarray:
    lat = lattice(M)
    sym = np.where(lat.nonresonant, lat.symbol, beta * (-(lat.K.astype(np.float64) ** 2) - 1.0))
    sym.flags.writeable = False
    return sym


def residual(p: PenalizedProblem, u: SpectralField, samples: list | None = None) -> SpectralField:
    """Spectral residual of the penalized system at u (bandlimited to M).

    With ``samples`` (a list), u's padded-grid samples U are appended to it,
    so that the Jacobian at u (``_linear_solver``) takes them instead of
    synthesizing u a second time.
    """
    if u.M != p.M:
        raise ValueError("field truncation must match the problem")
    U, fv = _on_grid(p, u, 0)
    fh = analyze(GridField(fv), p.M)
    if samples is not None:
        samples.append(U)
    # no mask here: SpectralField zeroes the entries off the diamond
    Rc = penalized_symbol(p) * u.coeffs - p.sigma * fh.coeffs
    if p.forcing is not None:
        Rc = Rc - p.forcing.coeffs
    return SpectralField(p.M, Rc)


def pair(a: SpectralField, b: SpectralField) -> float:
    """Area-weighted pairing <a, b> = |Q| Re sum a_hat conj(b_hat) = int_Q a b."""
    a, b = unify(a, b)
    return Q_AREA * float(np.real(np.vdot(b.coeffs, a.coeffs)))


def functional_I(p: PenalizedProblem, u: SpectralField) -> float:
    """Penalized functional whose gradient is the residual (see module docstring)."""
    if u.M != p.M:
        raise ValueError("field truncation must match the problem")
    lat = lattice(p.M)
    wp = project(u, SubspaceTag.EPLUS)
    wm = project(u, SubspaceTag.EMINUS)
    v = project(u, SubspaceTag.N)
    t1 = 0.5 * (norm_E(wp) ** 2 - norm_E(wm) ** 2)
    v2 = Q_AREA * float(np.sum(np.abs(v.coeffs) ** 2))
    vt2 = Q_AREA * float(np.sum((lat.K**2) * np.abs(v.coeffs) ** 2))
    _, Fv = _on_grid(p, u, "F")
    out = KAPPA * t1 - 0.5 * p.beta * (v2 + vt2) - p.sigma * grid_integral(Fv)
    if p.forcing is not None:
        out -= pair(p.forcing, u)
    return out


def _jacobian_fill(p: PenalizedProblem, half: np.ndarray, f_u: np.ndarray):
    """The fill of the block of J = d(residual)/du at the iterate u whose
    f_u(x, u) on the padded grid is ``f_u``, a real matrix over the packed
    coordinates, over the coordinates of (0, 0) and of the half modes where
    ``half`` (a boolean mask over the half modes) is True, in the same
    order; all True gives the whole J.

    Rows and columns follow ``pack``: [Re u_hat(0, 0), x h, y h] with x the
    real and y the imaginary parts of the half modes h.  With
    g_hat = -sigma f_u_hat (the multiplication symbol on lattice(2M)),
    gr, gi its real and imaginary parts and d the penalized symbol, the
    residual at h moves along the column of h' through g_hat(h - h') and,
    via the conjugate mode -h', through g_hat(h + h'):

        [x h, x h'] = (gr(h - h') + d(h) [h = h']) + gr(h + h')
        [x h, y h'] = -gi(h - h') + gi(h + h')
        [y h, x h'] = gi(h - h') + gi(h + h')
        [y h, y h'] = (gr(h - h') + d(h) [h = h']) - gr(h + h')

    and row and column 0 are [0, 0] = gr(0) + d(0), [0, x h'] =
    gr(-h') + gr(h'), [0, y h'] = -(gi(-h') - gi(h')), [x h, 0] = gr(h),
    [y h, 0] = gi(h).  Every entry is one gather from the raveled g_hat,
    whose rows hold 4M + 1 coefficients: with off(h) = (4M + 1) j + k and
    zero = M(4M + 1) + 2M, the position of (0, 0), h' - h sits at
    zero - off(h) + off(h') and h + h' at zero + off(h) + off(h').  Row 0
    reads -h' because g_hat is Hermitian only to rounding.

    Returns ``fill(out=None)``, which writes the block, n x n with n one
    more than twice the count of True in ``half``, into the leading n x n
    block of ``out`` (a new array when None) and returns ``out``.  ``out``
    should be Fortran-ordered, as LAPACK's getrf wants it: fill writes the
    transpose row by row, which is the same memory.  The four field
    blocks are written in row panels of about ``_PANEL_ENTRIES`` entries:
    each panel gathers gr + i gi at its positions of h' - h and h + h', so
    at most two complex panels and one index panel are alive beside
    ``out``, and nothing of size n_half^2 is built or cached.  Every entry
    gets the operands of the formulas above, in their order, so the panel
    height does not change a bit of J.  g_hat is analyzed from ``f_u``
    here, once, and the fill keeps g_hat, not the grid, so a fill after an
    in-place LU rebuilds J without a transform.
    """
    lat = lattice(p.M)
    zero = p.M * (4 * p.M + 1) + 2 * p.M
    off = ((4 * p.M + 1) * lat.J + lat.K)[lat.half][half]
    minus, plus = zero - off, zero + off
    g = analyze(GridField(f_u), 2 * p.M).coeffs.ravel()  # f_u(x, u), bandwidth 2M
    s = -p.sigma
    gc = np.empty_like(g)  # one gather reads both parts
    gc.real, gc.imag = s * g.real, s * g.imag
    gr, gi = gc.real, gc.imag
    sym = penalized_symbol(p)
    d = sym[lat.half_rows, lat.half_cols][half]
    nh = off.size
    n = 1 + 2 * nh
    x, y = slice(1, 1 + nh), slice(1 + nh, n)
    rows = max(1, _PANEL_ENTRIES // max(nh, 1))

    def fill(out=None):
        J = np.empty((n, n), order="F") if out is None else out
        T = J.T  # T[a, b] = J[b, a]
        T[0, 0] = gr[zero] + sym[lat.jmax, p.M]
        T[x, 0] = gr[minus] + gr[plus]
        T[y, 0] = -(gi[minus] - gi[plus])
        T[0, x] = gr[plus]
        T[0, y] = gi[plus]
        Txx, Txy, Tyx, Tyy = T[x, x], T[x, y], T[y, x], T[y, y]
        for a in range(0, nh, rows):
            b = min(a + rows, nh)
            dg = gc[minus[a:b, None] + off]  # at h' - h
            sg = gc[plus[a:b, None] + off]  # at h + h'
            dg.reshape(-1)[a::nh + 1].real += d[a:b]  # the entries h' = h
            np.add(dg.real, sg.real, out=Txx[a:b])
            np.subtract(dg.real, sg.real, out=Tyy[a:b])
            np.add(dg.imag, sg.imag, out=Txy[a:b])
            np.subtract(sg.imag, dg.imag, out=Tyx[a:b])
            del dg, sg  # freed before the next panel is gathered
        return J

    return fill


def _coarse_truncation(M: int) -> int:
    """M_c, the weight bound of the modes whose block of J the Newton step
    factors: M while lattice(M) has at most ``DENSE_LIMIT`` real unknowns,
    else M // _COARSE_DIVISOR, lowered until its lattice fits ``DENSE_LIMIT``
    (0 at least: the one mode (0, 0))."""
    M_c = M if lattice(M).n_real <= DENSE_LIMIT else M // _COARSE_DIVISOR
    while M_c > 0 and lattice(M_c).n_real > DENSE_LIMIT:
        M_c -= 1
    return M_c


def time_derivative(u: SpectralField) -> SpectralField:
    """Spectral d/dt: multiply u_hat(j, k) by ik."""
    return SpectralField(u.M, u.coeffs * (1j * lattice(u.M).K))


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("i,i", v, v)))


def _gmres(apply, precondition, b: np.ndarray) -> np.ndarray:
    """x with |b - apply(x)| <= 1e-9 |b|, by GMRES (Saad & Schultz, SIAM J.
    Sci. Stat. Comput. 7, 1986) restarted every ``_INNER_M`` products and
    right-preconditioned.  Each restart builds an orthonormal basis V of the
    Krylov space of apply(precondition(.)) from the true residual, by
    classical Gram-Schmidt applied twice, and turns the Hessenberg matrix
    into the triangular R by Givens rotations, one column per product
    (Saad, Iterative Methods for Sparse Linear Systems, 2003, sec. 6.5.3):
    the rotated right-hand side g carries the least-squares residual as
    |g_k|.  A restart stops once that reaches the target or the space is
    invariant, and moves x by precondition(V y), R y = g; ``precondition``
    must be linear, so no second basis of preconditioned vectors is kept.
    10 restarts cost at most 10 (``_INNER_M`` + 1) products; a solve still
    above the target after them, or one that meets a non-finite vector,
    raises SingularJacobian.  The reductions over vectors of length n_real
    are ``einsum`` loops, not BLAS calls, so their bits follow no BLAS
    thread count (``multi`` pins scipy's OpenBLAS, not numpy's).
    """
    x, r = np.zeros_like(b), b
    bnorm = _norm(b)
    target = 1e-9 * bnorm
    V = np.empty((_INNER_M + 1, b.size))
    R = np.zeros((_INNER_M, _INNER_M))
    for restart in range(11):
        beta = _norm(r)
        if not target < beta < np.inf or restart == 10:  # converged, non-finite or spent
            break
        g = np.zeros(_INNER_M + 1)
        V[0], g[0] = r / beta, beta
        rotations = []  # (cos, sin) of the rotation of rows i, i + 1
        for k in range(1, _INNER_M + 1):
            w = apply(precondition(V[k - 1]))
            h = np.zeros(k + 1)  # column k of the Hessenberg matrix
            for _ in range(2):
                hk = np.einsum("ij,j->i", V[:k], w)
                w -= np.einsum("ij,i->j", V[:k], hk)
                h[:k] += hk
            h[k] = _norm(w)
            if not np.isfinite(h[k]):
                raise SingularJacobian("iterative linear solve failed "
                                       "(non-finite Krylov vector)")
            h = h.tolist()  # the rotations run on Python floats
            for i, (c, s) in enumerate(rotations):
                h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
            rho = math.hypot(h[k - 1], h[k])
            if rho == 0.0:  # invariant, and singular on it: y leaves column k out
                k -= 1
                break
            c, s = h[k - 1] / rho, h[k] / rho
            rotations.append((c, s))
            R[:k - 1, k - 1], R[k - 1, k - 1] = h[:k - 1], rho
            g[k - 1], g[k] = c * g[k - 1], -s * g[k - 1]
            if abs(g[k]) <= target or h[k] == 0.0:
                break
            V[k] = w / h[k]
        y = np.linalg.solve(R[:k, :k], g[:k])
        x = x + precondition(np.einsum("ij,i->j", V[:k], y))
        r = b - apply(x)
    if not beta <= target:
        raise SingularJacobian(f"iterative linear solve failed (relative residual "
                               f"{beta / bnorm:.1e} after {restart} restarts)")
    return x


def _linear_solver(p: PenalizedProblem, u: SpectralField,
                   anchor: np.ndarray | None = None, work: np.ndarray | None = None,
                   samples: list | None = None):
    """Return ``(solve, levenberg)`` for the Jacobian at u.

    ``solve(rhs)`` solves J delta = rhs over the packed coordinates, and
    ``levenberg(mu)`` factors the Levenberg system J + mu I and returns its
    solve; both map a length-n_real right-hand side to a length-n_real step.
    The packed coordinates split into the coarse ones, of the modes of
    weight at most M_c (``_coarse_truncation``), and the fine rest.  Each
    factorization is the LU of the block of J (+ mu) over the coarse
    coordinates, and the solve is that of a preconditioner whose coarse
    half is this LU and whose fine half is the Jacobi diagonal of J (+ mu).
    Up to ``DENSE_LIMIT`` real unknowns M_c is M: there is no fine mode, the
    block is J, and the preconditioner's solve is the exact step.  Only when
    fine modes exist does ``_gmres`` solve the system, with the matrix-free
    product by J (+ mu) and that preconditioner, within 10 restarts.

    The block is filled, Fortran-ordered, into the flat float64 buffer
    ``work`` of at least (n_c + 1)^2 entries, n_c the coarse count of real
    unknowns (a new one when None), and LU-factored there, in place; the
    fill writes the block in row panels straight into that buffer, so no
    other array of its size is made, and ``levenberg(mu)`` refills it into
    the same buffer before adding mu on the field diagonal.  A solve is
    valid until the next factorization, so ``levenberg`` ends the use of
    ``solve``.
    ``pool.lapack()``'s ``dgetrf`` and ``dgetrs`` are the routines
    ``scipy.linalg.lu_factor(J, overwrite_a=True, check_finite=False)`` and
    ``lu_solve`` reach, called with the same arguments, so the factors and
    exact steps are theirs, bit for bit.  An exactly zero pivot (dgetrf's
    ``info > 0``) or a non-finite factor (as a non-finite entry of J gives;
    found by the factor's min and max) raises SingularJacobian, and so does
    a GMRES solve that does not converge.

    f_u(x, u) on the padded grid is formed once, from the samples of u that
    ``residual`` put in the list ``samples`` (taken out of it, and dropped
    once f_u is formed; u is synthesized when there are none).  That one
    grid gives the fill (``_jacobian_fill``), the Jacobi diagonal and the
    GMRES's products; with no fine mode it is dropped before the fill runs.

    With ``anchor`` (a packed direction), the system is bordered with the
    phase condition <anchor, delta> = 0: autonomous problems have the exact
    null vector d/dt u at any time-dependent solution, and the bordered
    solve removes it while staying an LU factorization.  The preconditioner
    is the bordered system with J replaced by its coarse block and the fine
    diagonal; eliminating the fine rows leaves the coarse block bordered by
    the anchor's coarse part, with -sum a_f^2 / diagonal (over the fine
    coordinates f) in the corner, 0 when there is no fine mode.
    """
    lat = lattice(p.M)
    n = lat.n_real
    dim = n if anchor is None else n + 1
    lib = lapack()
    half = lat.weight[lat.half_rows, lat.half_cols] <= _coarse_truncation(p.M)
    packed = np.concatenate(([True], half, half))  # pack's (0, 0), x h, y h
    coarse, fine = np.flatnonzero(packed), np.flatnonzero(~packed)
    nc = coarse.size
    border_f = (np.empty((0, n)) if anchor is None else anchor[None, :])[:, fine]
    f_u = _on_grid(p, u, 1, samples=samples)[1]
    sym = penalized_symbol(p)
    # exact Jacobi diagonal: every convolution row carries the mean of f_u
    d = sym[lat.half_rows, lat.half_cols] - p.sigma * float(np.mean(f_u))
    jacobi = np.concatenate((d, d))[fine - 1]  # (0, 0) is coarse: fine >= 1
    fill = _jacobian_fill(p, half, f_u)
    if not fine.size:  # no product reads the grid: free it before the fill runs
        f_u = None

    def matvec(z, mu):
        x = z[:n]
        dz = unpack(x, p.M)
        dv = synthesize_values(dz, *f_u.shape).real
        prod = analyze(GridField(f_u * dv), p.M)
        out = pack(SpectralField(p.M, sym * dz.coeffs - p.sigma * prod.coeffs)) + mu * x
        if anchor is None:
            return out
        return np.append(out + z[n] * anchor, anchor @ x)

    dim_c = nc + dim - n  # the factored block and the phase row
    if work is None:
        work = np.empty((nc + 1) ** 2)

    def factor(mu):
        diag = jacobi + mu  # the fine half of the preconditioner
        diag[np.abs(diag) < 1e-12] = 1.0
        J = fill(work[:dim_c * dim_c].reshape(dim_c, dim_c, order="F"))
        if anchor is not None:
            J[:nc, nc] = anchor[coarse]
            J[nc, :nc] = anchor[coarse]
            # negating the factor, not the product, leaves +0.0 with no fine mode
            J[nc, nc] = (border_f[0] / diag) @ -border_f[0]
        if mu:  # Levenberg: damp only the field block, not the border
            J[range(nc), range(nc)] += mu
        # no scan for non-finite input: a non-finite J gives a
        # non-finite factor, and every right-hand side is finite
        lu, piv, info = lib.dgetrf(J, overwrite_a=1)
        # min and max carry a NaN and reach either infinity, with no
        # temporary of J's size (np.isfinite(lu) is one of dim^2 bytes)
        if not (np.isfinite(lu.min()) and np.isfinite(lu.max())):
            raise SingularJacobian("non-finite factorization")
        if info > 0:
            raise SingularJacobian(f"zero pivot U({info},{info})")

        def precondition(z):
            x = np.empty(dim)
            x[fine] = z[fine] / diag
            w = lib.dgetrs(lu, piv, np.concatenate((z[coarse], z[n:] - border_f @ x[fine])))[0]
            x[coarse], x[n:] = w[:nc], w[nc:]
            x[fine] -= (w[nc:] @ border_f) / diag
            return x

        solve = precondition
        if fine.size:
            def solve(b):
                return _gmres(lambda z: matvec(z, mu), precondition, b)

        # every solve: zero right-hand side for the phase row, field part back
        return lambda rhs: solve(np.concatenate((rhs, np.zeros(dim - n))))[:n]

    return factor(0.0), factor


def _backtrack(p: PenalizedProblem, u: SpectralField, rnorm: float,
               step: SpectralField, floor: float, accept):
    """First trial u + lam step, lam = 1, 1/2, ... >= floor, that lowers the
    residual norm by the factor 1 - 1e-4 lam or that ``accept`` passes.

    The decrease is tested first, so ``accept``, which must have no side
    effects and may cost a linear solve, runs only on trials that fail it.
    Returns (u_try, R_try, |R_try|, samples), samples the list holding
    u_try's padded-grid samples (see ``residual``), or None when every trial
    fails.  A failed trial's samples are dropped before the next trial.
    """
    lam = 1.0
    while lam >= floor:
        u_try = u + lam * step
        samples = []
        R_try = residual(p, u_try, samples)
        r_try = R_try.l2()
        if r_try <= (1.0 - 1e-4 * lam) * rnorm or accept(lam, R_try, r_try):
            return u_try, R_try, r_try, samples
        lam *= 0.5
    return None


def newton_solve(p: PenalizedProblem, seed_u: SpectralField, tol: float = 1e-10,
                 max_iter: int = 40, line_search: bool = True) -> SolutionState:
    """Damped Newton on the packed real system.

    Each step backtracks lam = 1, 1/2, ... down to 2^-16.  A trial passes on
    plain residual decrease or on the affine-covariant (natural
    monotonicity) test ||J^{-1} R(u + lam d)|| <= (1 - lam/2) ||d||, which
    reuses the step's linear solver (``_linear_solver``: its coarse LU, and
    ``_gmres`` when fine modes exist).  Near a root the full step passes both
    and the iteration is quadratic.  When no trial passes, the step is
    retried with Levenberg steps (J + mu I) d = -R for growing mu, each
    backtracked down to 2^-8 on residual decrease only; a mu whose system is
    exactly singular, or whose GMRES solve fails, is skipped.  With
    ``line_search=False`` the full step is always taken, and no solve is
    made beyond the step's.  Every factorization of one solve, the Levenberg
    ones included, runs in one buffer of (n_c + 1)^2 entries, n_c the
    number of real unknowns of weight at most ``_coarse_truncation(M)``
    (n_real up to ``DENSE_LIMIT``).
    Each iterate is synthesized on the padded grid once: its residual's
    samples go to the next Jacobian (``_linear_solver``), which gives the
    same bits as a synthesis per Jacobian.

    For unforced (time-autonomous) problems the Jacobian is exactly singular
    at every genuinely time-dependent solution, with null vector d/dt u; the
    step is then computed from the phase-anchored bordered system with the
    current iterate's time derivative as anchor.

    Raises NoConvergence after ``max_iter`` accepted steps, a failed line
    search or a non-finite residual norm, carrying the iterate of lowest
    residual norm (an accepted step may raise it: the natural-monotonicity
    test does not bound the residual) with the steps taken and the whole
    residual history; SingularJacobian when the linear solve breaks down.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if seed_u.M != p.M:
        raise ValueError("seed truncation must match the problem")
    # the LU buffer before the seed's residual: in a pooled search it then
    # takes whole the hole the thread's previous buffer left in its malloc
    # arena, which the residual's temporaries would otherwise split, making
    # the arena grow by most of a buffer
    work = np.empty((lattice(_coarse_truncation(p.M)).n_real + 1) ** 2)
    u = seed_u
    samples = []  # u's padded-grid samples, from its residual to its Jacobian
    R = residual(p, u, samples)
    rnorm = R.l2()
    history = [rnorm]
    iters = 0
    best = u, rnorm  # the lowest-residual iterate, which a failure carries

    def state(u, rnorm, converged):
        samples.clear()  # no Jacobian follows: free u's grid before I(u) makes its own
        return SolutionState(u, rnorm, functional_I(p, u), iters,
                             tuple(history), converged)

    while not rnorm <= tol:  # a NaN norm enters the loop and stops below
        if not np.isfinite(rnorm):
            raise NoConvergence(f"non-finite residual norm after {iters} iterations",
                                state(*best, False))
        if iters >= max_iter:
            raise NoConvergence(f"no convergence after {max_iter} iterations",
                                state(*best, False))
        anchor = None
        if p.forcing is None:
            t_vec = pack(time_derivative(u))
            t_norm = np.linalg.norm(t_vec)
            if t_norm > 1e-9 * max(u.l2(), 1.0):
                anchor = t_vec / t_norm
        solve, levenberg = _linear_solver(p, u, anchor, work, samples)
        delta = solve(-pack(R))
        ndelta = np.linalg.norm(delta)

        def natural(lam, R_try, r_try):
            return not line_search or (np.isfinite(r_try) and (
                np.linalg.norm(solve(pack(R_try))) <= (1.0 - 0.5 * lam) * ndelta))

        trial = _backtrack(p, u, rnorm, unpack(delta, p.M), 2.0**-16, natural)
        if trial is None:
            # Levenberg ladder: escape merit plateaus near folds
            for mu in (1e-4, 1e-2, 1.0, 1e2, 1e4):
                try:
                    delta = levenberg(mu)(-pack(R))
                except SingularJacobian:
                    continue
                trial = _backtrack(p, u, rnorm, unpack(delta, p.M), 2.0**-8,
                                   lambda *_: False)
                if trial is not None:
                    break
        if trial is not None:
            u, R, rnorm, samples = trial
            if rnorm < best[1]:
                best = u, rnorm
        iters += 1
        history.append(rnorm)
        if trial is None:
            raise NoConvergence("line search stalled", state(*best, False))
    return state(u, rnorm, True)


# -- continuation in the penalty --------------------------------------------


@dataclass(frozen=True)
class BetaSchedule:
    start: float
    factor: float
    floor: float

    def __post_init__(self):
        if not (self.start > self.floor > 0.0):
            raise ValueError("schedule requires start > floor > 0")
        if not (0.0 < self.factor < 1.0):
            raise ValueError("schedule must decrease: factor must lie in (0, 1)")

    def betas(self):
        out = [self.start]
        while out[-1] * self.factor >= self.floor * (1.0 - 1e-12):
            out.append(out[-1] * self.factor)
        if out[-1] > self.floor * (1.0 + 1e-12):
            out.append(self.floor)
        return out


@dataclass(frozen=True)
class ContinuationRow:
    beta: float
    residual_norm: float
    I_value: float
    newton_iters: int
    v_c0: float
    v_t_l2: float
    v_tt_l2: float
    v_ttt_l2: float
    w_h1: float
    w_h2: float
    u: SpectralField = field(repr=False, default=None)


CSV_COLUMNS = tuple(f.name for f in fields(ContinuationRow) if f.name != "u")
# the a priori quantities of monitored_quantities: the fields after newton_iters
MONITORED = CSV_COLUMNS[CSV_COLUMNS.index("newton_iters") + 1:]


@dataclass
class ContinuationTrace:
    rows: list

    def column(self, name: str):
        return [getattr(r, name) for r in self.rows]

    def to_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in self.rows))


def monitored_quantities(u: SpectralField, oversample: int = OVERSAMPLE) -> dict:
    """A priori quantities of the kernel/off-kernel split of a solution."""
    lat = lattice(u.M)
    v = project(u, SubspaceTag.N)
    w = project(u, SubspaceTag.EPERP)
    k2 = (lat.K.astype(np.float64) ** 2)
    av2 = np.abs(v.coeffs) ** 2
    return {
        "v_c0": grid_max_abs(v, oversample),
        "v_t_l2": float(np.sqrt(Q_AREA * np.sum(k2 * av2))),
        "v_tt_l2": float(np.sqrt(Q_AREA * np.sum(k2**2 * av2))),
        "v_ttt_l2": float(np.sqrt(Q_AREA * np.sum(k2**3 * av2))),
        "w_h1": sobolev_norm(w, 1.0, "aniso"),
        "w_h2": sobolev_norm(w, 2.0, "aniso"),
    }


def continuation_beta(p0: PenalizedProblem, schedule: BetaSchedule,
                      seed_u: SpectralField, **newton) -> ContinuationTrace:
    """Warm-started solve along a decreasing penalty schedule.

    ``newton`` (``tol``, ``max_iter``, ``line_search``) goes to every
    ``newton_solve`` unchanged, so a key left out takes its default there.
    On failure raises StallAt wrapping the Newton error and carrying the
    partial trace accumulated so far.
    """
    trace = ContinuationTrace([])
    u = seed_u
    for beta in schedule.betas():
        p = replace(p0, beta=beta)
        try:
            sol = newton_solve(p, u, **newton)
        except (NoConvergence, SingularJacobian) as exc:
            raise StallAt(beta, exc, trace) from exc
        u = sol.u
        trace.rows.append(ContinuationRow(
            beta=beta, residual_norm=sol.residual_norm, I_value=sol.I_value,
            newton_iters=sol.newton_iters, u=u,
            **monitored_quantities(u, p0.oversample)))
    return trace


def apriori_monitor(trace, bound: float = 10.0, atol: float = 1e-11) -> dict:
    """Max/min variation of the monitored quantities across a continuation.

    The quantities are read from the trace rows, which store them as
    computed at the problem's oversampling.  A quantity that stays below
    ``atol`` throughout is a constant zero and reports ratio 1.  Ratios above
    ``bound`` are flagged.
    """
    if not trace.rows:
        raise ValueError("trace is empty")
    per = {}
    flagged = []
    for name in MONITORED:
        vals = trace.column(name)
        vmax, vmin = max(vals), min(vals)
        if vmax <= atol:
            ratio = 1.0
        elif vmin <= atol:
            ratio = float("inf")
        else:
            ratio = vmax / vmin
        ok = ratio <= bound
        per[name] = {"max": vmax, "min": vmin, "ratio": ratio, "within_bound": ok}
        if not ok:
            flagged.append(name)
    return {"bound": bound, "n_rows": len(trace.rows), "per_quantity": per,
            "flagged": flagged}


# -- manufactured-solution studies -------------------------------------------

# decay of the manufactured target where a config gives none (forcing kind
# mms_target, command mms)
MMS_DECAY = 0.5


def mms_problem(nl, decay: float, M: int, beta: float, seed: int = 0,
                sigma: int = 1, oversample: int = OVERSAMPLE, kernel_free: bool = False):
    """Target field plus the forced problem that makes it an exact root.

    With ``kernel_free`` the target is supported off the kernel, which makes
    it a root at every penalty value (the kernel equations are then satisfied
    by forcing alone, independently of beta).
    """
    tag = SubspaceTag.EPERP if kernel_free else SubspaceTag.ALL
    target = random_field((seed, 777), M, tag, decay)
    p0 = PenalizedProblem(M=M, beta=beta, nl=nl, sigma=sigma, oversample=oversample)
    forcing = residual(p0, target)
    return target, replace(p0, forcing=forcing)


def mms_run(nl, decay: float, M_list, beta: float, seed: int = 0, sigma: int = 1,
            oversample: int = OVERSAMPLE, tol: float = 1e-12, max_iter: int = 25,
            **newton) -> dict:
    """Manufactured-solution convergence study over increasing truncations.

    The target lives at the largest truncation; each level is solved from a
    cold seed (the target truncated to the coarsest level, never the previous
    level's solution) and reports the coefficient-l2 error against the full
    target.  Per-level solver failures are recorded in the row and do not
    abort the study.  The study's own Newton tolerance and budget are
    ``tol`` and ``max_iter``; any other ``newton_solve`` keyword
    (``line_search``) goes to it unchanged.
    """
    M_list = list(M_list)
    if any(b <= a for a, b in zip(M_list, M_list[1:])):
        raise ValueError("M_list must be increasing")
    M_max = max(M_list)
    target, p_big = mms_problem(nl, decay, M_max, beta, seed, sigma, oversample)
    seed_core = truncate(target, min(M_list))
    rows = []
    for M in M_list:
        pM = replace(p_big, M=M, forcing=truncate(p_big.forcing, M))
        failed = ""
        try:
            sol = newton_solve(pM, embed(seed_core, M), tol=tol, max_iter=max_iter,
                               **newton)
        except (NoConvergence, SingularJacobian) as exc:
            sol, failed = getattr(exc, "best", None), type(exc).__name__
        rows.append({
            "M": int(M),
            "l2_error": float((embed(sol.u, M_max) - target).l2()) if sol else float("nan"),
            "residual": sol.residual_norm if sol else float("nan"),
            "newton_iters": sol.newton_iters if sol else -1,
            "failed": failed})
    return {"rows": rows, "target_l2": target.l2(), "decay": decay,
            "beta": beta, "seed": seed}


def write_mms_csv(table: dict, path) -> None:
    columns = ("M", "l2_error", "residual", "newton_iters", "failed")
    write_csv(path, columns, ([r[c] for c in columns] for r in table["rows"]))


# -- multiplicity search ------------------------------------------------------


def _phase_scan(ck: np.ndarray) -> np.ndarray:
    """Re sum_k ck[k + M] e^{ik theta_m} on the scan grid theta_m = 2 pi m /
    PHASE_GRID: one inverse FFT of ck placed at k mod PHASE_GRID (aliased k
    add up, which is exact on the grid)."""
    M = (ck.size - 1) // 2
    a = np.zeros(PHASE_GRID, dtype=np.complex128)
    np.add.at(a, np.arange(-M, M + 1) % PHASE_GRID, ck)
    return np.fft.ifft(a, norm="forward").real


def max_time_correlation(u1: SpectralField, u2: SpectralField):
    """max over theta of <u1(., . + theta), u2> / (||u1|| ||u2||), with argmax.

    The correlation c(theta) = Re sum_k c_k e^{ik theta} / (||u1|| ||u2||) is
    a trig polynomial in theta (c_k from the k-axis sums).  It is scanned on
    ``PHASE_GRID`` points by one inverse FFT (``_phase_scan``), and the grid
    argmax is refined by Newton steps on c'(theta) = 0 with the analytic c'
    and c'' while c'' < 0 and the iterate stays within two grid steps.  The
    refined value is returned when it is not below the grid maximum, the
    grid maximum otherwise.  A field of l2 norm at most 1e-12 max(1, ||u1||,
    ||u2||) is zero: two zeros correlate 1, a zero and a nonzero field 0.
    """
    n1, n2 = u1.l2(), u2.l2()
    zero = 1e-12 * max(1.0, n1, n2)
    if n1 <= zero and n2 <= zero:
        return 1.0, 0.0
    if n1 <= zero or n2 <= zero:
        return 0.0, 0.0
    u1, u2 = unify(u1, u2)
    ck = np.sum(u1.coeffs * np.conj(u2.coeffs), axis=0)  # index k + M
    ks = np.arange(-u1.M, u1.M + 1)
    vals = _phase_scan(ck) / (n1 * n2)
    i0 = int(np.argmax(vals))
    dt = 2.0 * np.pi / PHASE_GRID
    theta0 = theta = 2.0 * np.pi * i0 / PHASE_GRID
    for _ in range(8):
        terms = ck * np.exp(1j * ks * theta)
        d1 = -float(np.sum(ks * terms.imag))  # c' and c'', times ||u1|| ||u2||
        d2 = -float(np.sum(ks * ks * terms.real))
        if not d2 < 0.0 or abs(theta - d1 / d2 - theta0) > 2 * dt:
            break
        step = d1 / d2
        theta -= step
        if abs(step) <= 1e-15:
            break
    best = float(np.real(np.sum(ck * np.exp(1j * ks * theta)))) / (n1 * n2)
    if best >= vals[i0]:
        return best, float(theta % (2.0 * np.pi))
    return float(vals[i0]), theta0


def _seed_fields(p: PenalizedProblem, n_seeds: int, master_seed: int):
    """Deterministic seed ladder: zero, random fields of growing amplitude,
    and concentrated high-temporal-frequency (Eplus) directions.

    A generator: seed i is drawn when it is pulled, from its own
    ``(master_seed, 101|202, i)`` stream, so it is the same field however
    the ladder is consumed, and the frame keeps no field between pulls."""
    for i in range(n_seeds):
        amp = 0.3 * 1.15**i
        if i == 0:
            yield SpectralField.zeros(p.M)
        elif i % 2 == 1:
            yield amp * random_field((master_seed, 101, i), p.M, SubspaceTag.ALL, 0.3)
        else:
            level = min(2 + (i // 2) * 2, p.M)
            yield amp * embed(random_field((master_seed, 202, i), level,
                                           SubspaceTag.EPLUS, 0.0), p.M)


def dedup_solutions(found, dedup_threshold: float):
    """Keep one representative per time-translation class (first found wins)."""
    distinct = []
    for sol in found:
        if not any(max_time_correlation(sol.u, rep.u)[0] > dedup_threshold
                   for rep in distinct):
            distinct.append(sol)
    return distinct


def _solve_bytes(p: PenalizedProblem) -> int:
    """Bytes one ``newton_solve`` holds at its peak: the (n_c + 1)^2 float64
    buffer of the factored block (n_c real unknowns, ``_coarse_truncation``),
    the fill's panels (two complex128 and one index panel of
    ``_PANEL_ENTRIES`` entries) and the grid work of a transform of f (80
    bytes a point of the ``_grid_side(p)`` grid, five complex grids, which
    also covers the coefficient arrays alive beside it).  The grid samples
    an accepted residual keeps for the next Jacobian are part of that grid
    work: they are dropped once f_u is formed, before the fill.  Above
    ``DENSE_LIMIT`` the GMRES adds two grids, f_u kept for its products and
    a trial's samples kept through the monotonicity test's solve, and
    vectors of n_real + 1 entries: its one basis of ``_INNER_M`` + 1, which
    every restart reuses, and 24 more for its temporaries and the lattice
    fields the Newton step holds around the solve.  The terms are summed
    although the fill and the transforms never overlap.  Beside the solve a
    worker holds only its seed, one lattice field: the ladder is drawn as
    the workers pull it (``_seed_fields``)."""
    n, grid = lattice(p.M).n_real, _grid_side(p) ** 2
    n_c = lattice(_coarse_truncation(p.M)).n_real
    held = 8 * (n_c + 1) ** 2 + 40 * _PANEL_ENTRIES + 80 * grid
    if n_c < n:
        held += 16 * grid + 8 * (n + 1) * (_INNER_M + 25)
    return held


def multi_seed_search(p: PenalizedProblem, n_seeds: int = 16,
                      dedup_threshold: float = 0.99, master_seed: int = 0,
                      max_iter: int = 60, **newton):
    """Newton from a deterministic seed ladder, deduplicated modulo time
    translation, sorted by functional value.

    The seeds run on ``pool.share_work`` with the OpenBLAS of the LU
    (``pool.LU_PACKAGE``'s) held at one thread, so the LUs give the same bits
    on every host.  The workers' solves, ``_solve_bytes`` each, are bounded
    together by ``pool.POOL_BYTES``: at oversample 4 with s <= 3 and an
    x-degree 1 nonlinearity, M = 34 to 36 still run two seeds at a time on two
    cores, and from M = 37 to 65 the search is serial; above ``DENSE_LIMIT`` a
    solve holds only its coarse block beside the GMRES, so M = 66 to 81 run two
    seeds at a time again, and from M = 82 up one.  The threads share read-only
    caches (``lattice``, the penalized symbol, the grid profiles and the
    transforms' grid positions); the LU routines run with the GIL released
    (``pool.BundledOpenBLAS`` through ``ctypes``, or scipy's f2py wrappers), so
    one seed's LU runs beside another seed's work.  The ladder is a generator
    that the workers advance under the pool's lock, so a search holds one seed
    per worker, not all ``n_seeds``.  Results come back in seed order and are
    deduplicated as in a serial loop.  Seeds ending in NoConvergence or
    SingularJacobian are skipped; any other error is raised.  Each seed's
    ``newton_solve`` runs at the search's own budget ``max_iter`` and takes
    ``newton`` (``tol``, ``line_search``) unchanged.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")

    def solve(seed_u):
        try:
            return newton_solve(p, seed_u, max_iter=max_iter, **newton)
        except (NoConvergence, SingularJacobian):
            return None

    found = [sol for sol in share_work(solve, _seed_fields(p, n_seeds, master_seed), n_seeds,
                                       LU_PACKAGE, _solve_bytes(p)) if sol is not None]
    distinct = dedup_solutions(found, dedup_threshold)
    distinct.sort(key=lambda s: s.I_value)
    return distinct


def critical_identity_gap(p: PenalizedProblem, u: SpectralField) -> float:
    """|I(u) - sigma int (u f / 2 - F) + (1/2) int forcing u|.

    The kernel-penalty quadratic terms cancel exactly against I'(u) u / 2,
    so at a critical point the functional equals the right-hand side and the
    gap vanishes (up to the residual norm scale).
    """
    I = functional_I(p, u)
    U, fv, Fv = _on_grid(p, u, 0, "F")
    rhs = p.sigma * grid_integral(0.5 * U * fv - Fv)
    if p.forcing is not None:
        rhs -= 0.5 * pair(p.forcing, u)
    return abs(I - rhs)


# -- linking diagnostics ------------------------------------------------------

LINKING_LEVELS = (4, 8)  # the default levels l of linking_report


def linking_report(p: PenalizedProblem, l_values=LINKING_LEVELS, rho_values=(0.25, 0.5, 1.0, 2.0),
                   n_starts: int = 5, n_sphere: int = 64, master_seed: int = 0) -> dict:
    """Per-level diagnostics of the linking geometry.

    For each l: M(l) = max of the functional over the finite subspace of
    temporally dominated modes with lattice weight <= l (multi-start ascent;
    the growth of F makes the functional proper on the subspace), and the
    sampled infimum of the functional over energy-norm spheres orthogonal to
    the previous level.  Reports whether M(l) is nondecreasing.
    """
    import scipy.optimize

    lat = lattice(p.M)

    def packed_index(sel):
        # packed positions of the real and imaginary parts of the half modes in sel
        at = 1 + np.flatnonzero(sel[lat.half_rows, lat.half_cols])
        return np.concatenate((at, at + lat.n_half))

    def sub_field(vec, idx):
        full = np.zeros(lat.n_real)
        full[idx] = vec
        return unpack(full, p.M)

    rows = []
    for l in l_values:
        if l > p.M:
            raise ValueError(f"level l={l} exceeds truncation M={p.M}")
        idx = packed_index(lat.eplus & (lat.weight <= l))
        dim = idx.size

        def neg_I(vec, idx=idx):
            u = sub_field(vec, idx)
            grad = 2.0 * Q_AREA * pack(residual(p, u))[idx]
            return -functional_I(p, u), -grad

        best_val = -np.inf
        for s_idx in range(n_starts):
            if s_idx == 0:
                x0 = np.zeros(dim)
            else:
                rng = np.random.default_rng((master_seed, 303, l, s_idx))
                x0 = rng.standard_normal(dim) * (0.3 * 2.0 ** (s_idx - 1))
            res = scipy.optimize.minimize(neg_I, x0, jac=True, method="L-BFGS-B",
                                          options={"maxiter": 500})
            best_val = max(best_val, -float(res.fun))
        tail = packed_index(lat.eplus & (lat.weight > l - 1))
        rng = np.random.default_rng((master_seed, 404, l))
        sphere = {}
        for rho in rho_values:
            worst = np.inf
            for _ in range(n_sphere):
                u = sub_field(rng.standard_normal(tail.size), tail)
                nE = norm_E(u)
                if nE == 0.0:
                    continue
                worst = min(worst, functional_I(p, (rho / nE) * u))
            sphere[rho] = worst
        rows.append({"l": int(l), "dim": int(dim), "max_I": best_val,
                     "sphere_inf": sphere})
    maxima = [r["max_I"] for r in rows]
    nondecreasing = all(maxima[i + 1] >= maxima[i] - 1e-9 for i in range(len(maxima) - 1))
    return {"rows": rows, "max_nondecreasing": bool(nondecreasing)}
