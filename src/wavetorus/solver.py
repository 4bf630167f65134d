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
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse.linalg

from .errors import NoConvergence, SingularJacobian, StallAt
from .norms import norm_E, sobolev_norm
from .spectral import (
    Q_AREA,
    GridField,
    SpectralField,
    SubspaceTag,
    analyze,
    embed,
    grid_integral,
    grid_max_abs,
    jacobian_gather,
    lattice,
    pack,
    project,
    random_field,
    synthesize,
    synthesize_values,
    unify,
    unpack,
    write_csv,
)

KAPPA = -4.0

DENSE_LIMIT = 4400  # real unknowns; M = 64 has 4161
PHASE_GRID = 4096  # scan points of max_time_correlation


@dataclass(frozen=True)
class PenalizedProblem:
    M: int
    beta: float
    nl: object
    sigma: int = 1
    forcing: SpectralField | None = None
    oversample: int = 4

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
    s = float(getattr(p.nl, "s", 3.0))
    deg = 0
    for part in ("a", "b"):
        poly = getattr(p.nl, part, None)
        deg = max(deg, getattr(poly, "degree", 0))
    factor = max(int(np.ceil(s)) + 1, p.oversample)
    n = factor * (p.M + 1) + 2 * deg + 2
    return max(n, 4 * p.M + 6)  # Jacobian needs analyze(..., 2M)


def _on_grid(p: PenalizedProblem, u: SpectralField, *orders):
    """Samples U of u on the padded grid, then f^(order)(x, U) per order ("F": F(x, U))."""
    n = _grid_side(p)
    g = synthesize(u, n, n)
    x, U = g.x(), g.values
    return (U, *(p.nl.potential_values(x, U) if o == "F" else p.nl.values(x, U, o)
                 for o in orders))


def _f_hat(p: PenalizedProblem, u: SpectralField, order: int = 0) -> SpectralField:
    _, vals = _on_grid(p, u, order)
    return analyze(GridField(vals), p.M if order == 0 else 2 * p.M)


def penalized_symbol(p: PenalizedProblem) -> np.ndarray:
    """Diagonal of the linear part on the lattice: 4j^2 - k^2 off the kernel,
    beta (-k^2 - 1) on it."""
    lat = lattice(p.M)
    return np.where(lat.nonresonant, lat.symbol,
                    p.beta * (-(lat.K.astype(np.float64) ** 2) - 1.0))


def residual(p: PenalizedProblem, u: SpectralField) -> SpectralField:
    """Spectral residual of the penalized system at u (bandlimited to M)."""
    if u.M != p.M:
        raise ValueError("field truncation must match the problem")
    fh = _f_hat(p, u, 0)
    sym = penalized_symbol(p)
    Rc = np.where(lattice(p.M).mask, sym * u.coeffs, 0.0) - p.sigma * fh.coeffs
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


def _dense_jacobian(p: PenalizedProblem, u: SpectralField):
    """The fill of J = d(residual)/du at u, a real matrix over the packed
    coordinates.

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
    [y h, 0] = gi(h).  Every entry is one gather through the flat index
    tables ``jacobian_gather(M)``, built once per M on the first call; row 0
    reads -h' because g_hat is Hermitian only to rounding.

    Returns ``fill(out=None)``, which writes J into the leading
    n_real x n_real block of ``out`` (a new array when None) and returns
    ``out``.  ``out`` should be Fortran-ordered, as LAPACK's getrf wants it:
    fill writes J^T row by row, which is the same memory, and reads
    g_hat(h' - h) through the transposed table ``diff_t`` (the h + h' table
    is symmetric).  Every entry gets the operands of the formulas above, in
    their order.  g_hat is computed once, so a fill after an in-place LU
    rebuilds J without a transform.
    """
    lat = lattice(p.M)
    tab = jacobian_gather(p.M)
    g = _f_hat(p, u, 1).coeffs.ravel()  # f_u(x, u), bandwidth 2M
    s = -p.sigma
    gr, gi = s * g.real, s * g.imag
    sym = penalized_symbol(p)
    n, nh = lat.n_real, lat.n_half
    x, y = slice(1, 1 + nh), slice(1 + nh, n)

    def fill(out=None):
        J = np.empty((n, n), order="F") if out is None else out
        T = J.T  # T[a, b] = J[b, a]
        T[0, 0] = gr[tab.zero] + sym[lat.jmax, p.M]
        T[x, 0] = gr[tab.minus] + gr[tab.plus]
        T[y, 0] = -(gi[tab.minus] - gi[tab.plus])
        T[0, x] = gr[tab.plus]
        T[0, y] = gi[tab.plus]
        dr, sr = gr[tab.diff_t], gr[tab.sum]
        dr.reshape(-1)[::nh + 1] += sym[lat.half_rows, lat.half_cols]
        np.add(dr, sr, out=T[x, x])
        np.subtract(dr, sr, out=T[y, y])
        del dr, sr  # at most two gather temporaries alive beside J
        di, si = gi[tab.diff_t], gi[tab.sum]
        np.add(di, si, out=T[x, y])
        np.subtract(si, di, out=T[y, x])
        return J

    return fill


def time_derivative(u: SpectralField) -> SpectralField:
    """Spectral d/dt: multiply u_hat(j, k) by ik."""
    return SpectralField(u.M, u.coeffs * (1j * lattice(u.M).K))


def _linear_solver(p: PenalizedProblem, u: SpectralField,
                   anchor: np.ndarray | None = None, work: np.ndarray | None = None):
    """Return ``(solve, levenberg)`` for the Jacobian at u.

    ``solve(rhs)`` solves J delta = rhs over the packed coordinates: dense LU
    up to ``DENSE_LIMIT`` real unknowns, otherwise preconditioned lgmres with
    the diagonal symbol as preconditioner.  ``levenberg(mu)`` factors the
    Levenberg system J + mu I and returns its solve; it exists on the dense
    path only and is None on the iterative one.  Both solves map a
    length-n_real right-hand side to a length-n_real step.

    The dense path fills J, Fortran-ordered, into the flat float64 buffer
    ``work`` of at least (n_real + 1)^2 entries (a new one when None) and
    LU-factors it there, in place; ``levenberg(mu)`` refills J into the same
    buffer before adding mu on the field diagonal.  A solve is valid until
    the next factorization, so ``levenberg`` ends the use of ``solve``.  An
    exactly zero pivot or a non-finite factor (as a non-finite entry of J
    gives) raises SingularJacobian.

    With ``anchor`` (a packed direction), the system is bordered with the
    phase condition <anchor, delta> = 0: autonomous problems have the exact
    null vector d/dt u at any time-dependent solution, and the bordered
    solve removes it while staying an LU factorization.
    """
    lat = lattice(p.M)
    n = lat.n_real
    dim = n if anchor is None else n + 1

    def bordered(solve_dim):
        # every solve: zero right-hand side for the phase row, field part back
        return lambda rhs: solve_dim(np.append(rhs, np.zeros(dim - n)))[:n]

    if n <= DENSE_LIMIT:
        fill = _dense_jacobian(p, u)
        if work is None:
            work = np.empty((n + 1) ** 2)

        def factor(mu):
            J = fill(work[:dim * dim].reshape(dim, dim, order="F"))
            if anchor is not None:
                J[:n, n] = anchor
                J[n, :n] = anchor
                J[n, n] = 0.0
            if mu:  # Levenberg: damp only the field block, not the border
                J[range(n), range(n)] += mu
            # scipy's scan for non-finite input is skipped: a non-finite J
            # gives a non-finite factor, and every right-hand side is finite
            lu = scipy.linalg.lu_factor(J, overwrite_a=True, check_finite=False)
            if not (np.all(np.isfinite(lu[0])) and np.all(np.diagonal(lu[0]))):
                raise SingularJacobian("zero pivot or non-finite factorization")
            return bordered(partial(scipy.linalg.lu_solve, lu, check_finite=False))

        return factor(0.0), factor

    U, fu_vals = _on_grid(p, u, 1)
    ng = U.shape[0]
    sym = penalized_symbol(p)

    def matvec(z):
        x = z[:n]
        d = unpack(x, p.M)
        dv = synthesize_values(d, ng, ng).real
        prod = analyze(GridField(fu_vals * dv), p.M)
        out = pack(SpectralField(p.M, sym * d.coeffs - p.sigma * prod.coeffs))
        if anchor is None:
            return out
        return np.append(out + z[n] * anchor, anchor @ x)

    # exact Jacobi diagonal: every convolution row carries the mean of f_u
    fu_mean = float(np.mean(fu_vals))
    diag = sym[lat.half_rows, lat.half_cols] - p.sigma * fu_mean
    dpk = np.concatenate(([sym[lat.jmax, p.M] - p.sigma * fu_mean], diag, diag))
    dpk = np.where(np.abs(dpk) < 1e-12, 1.0, dpk)
    op = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=matvec)
    pre = scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=lambda z: np.append(z[:n] / dpk, z[n:]))

    def krylov(b):
        sol, info = scipy.sparse.linalg.lgmres(op, b, M=pre, rtol=1e-9,
                                               atol=0.0, inner_m=50,
                                               maxiter=600)
        if info != 0:
            raise SingularJacobian(f"iterative linear solve failed (info={info})")
        return sol

    return bordered(krylov), None


def _backtrack(p: PenalizedProblem, u: SpectralField, rnorm: float,
               step: SpectralField, floor: float, accept):
    """First trial u + lam step, lam = 1, 1/2, ... >= floor, that ``accept``
    passes or that lowers the residual norm by the factor 1 - 1e-4 lam.

    Returns (u_try, R_try, |R_try|), or None when every trial fails.
    """
    lam = 1.0
    while lam >= floor:
        u_try = u + lam * step
        R_try = residual(p, u_try)
        r_try = R_try.l2()
        if accept(lam, R_try, r_try) or r_try <= (1.0 - 1e-4 * lam) * rnorm:
            return u_try, R_try, r_try
        lam *= 0.5
    return None


def newton_solve(p: PenalizedProblem, seed_u: SpectralField, tol: float = 1e-10,
                 max_iter: int = 40, line_search: bool = True) -> SolutionState:
    """Damped Newton on the packed real system.

    Each step backtracks lam = 1, 1/2, ... down to 2^-16.  On the dense path
    (up to ``DENSE_LIMIT`` real unknowns) a trial also passes the
    affine-covariant (natural monotonicity) test
    ||J^{-1} R(u + lam d)|| <= (1 - lam/2) ||d||, reusing the factorization;
    every trial passes on plain residual decrease.  Near a root the full step
    passes both and the iteration is quadratic.  When no trial passes, the
    dense path retries with Levenberg steps (J + mu I) d = -R for growing mu,
    each backtracked down to 2^-8 on residual decrease only; a mu whose
    system is exactly singular is skipped.  With ``line_search=False`` the
    full step is always taken.  Every dense factorization of one solve, the
    Levenberg ones included, runs in one buffer of (n_real + 1)^2 entries.

    For unforced (time-autonomous) problems the Jacobian is exactly singular
    at every genuinely time-dependent solution, with null vector d/dt u; the
    step is then computed from the phase-anchored bordered system with the
    current iterate's time derivative as anchor.

    Raises NoConvergence (carrying the last iterate) after ``max_iter``
    accepted steps, a failed line search or a non-finite residual norm;
    SingularJacobian when the linear solve breaks down.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if seed_u.M != p.M:
        raise ValueError("seed truncation must match the problem")
    u = seed_u
    R = residual(p, u)
    rnorm = R.l2()
    history = [rnorm]
    iters = 0
    n = lattice(p.M).n_real
    work = np.empty((n + 1) ** 2) if n <= DENSE_LIMIT else None

    def state(converged):
        return SolutionState(u, rnorm, functional_I(p, u), iters,
                             tuple(history), converged)

    while not rnorm <= tol:  # a NaN norm enters the loop and stops below
        if not np.isfinite(rnorm):
            raise NoConvergence(f"non-finite residual norm after {iters} iterations",
                                state(False))
        if iters >= max_iter:
            raise NoConvergence(f"no convergence after {max_iter} iterations",
                                state(False))
        anchor = None
        if p.forcing is None:
            t_vec = pack(time_derivative(u))
            t_norm = np.linalg.norm(t_vec)
            if t_norm > 1e-9 * max(u.l2(), 1.0):
                anchor = t_vec / t_norm
        solve, levenberg = _linear_solver(p, u, anchor, work)
        delta = solve(-pack(R))
        ndelta = np.linalg.norm(delta)

        def natural(lam, R_try, r_try):
            if levenberg is not None and np.isfinite(r_try):  # dense path
                if np.linalg.norm(solve(pack(R_try))) <= (1.0 - 0.5 * lam) * ndelta:
                    return True
            return not line_search

        trial = _backtrack(p, u, rnorm, unpack(delta, p.M), 2.0**-16, natural)
        if trial is None and levenberg is not None:
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
            u, R, rnorm = trial
        iters += 1
        history.append(rnorm)
        if trial is None:
            raise NoConvergence("line search stalled", state(False))
    return state(True)


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


def monitored_quantities(u: SpectralField, oversample: int = 4) -> dict:
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
                      seed_u: SpectralField, tol: float = 1e-10,
                      max_iter: int = 40) -> ContinuationTrace:
    """Warm-started solve along a decreasing penalty schedule.

    On failure raises StallAt wrapping the Newton error and carrying the
    partial trace accumulated so far.
    """
    trace = ContinuationTrace([])
    u = seed_u
    for beta in schedule.betas():
        p = replace(p0, beta=beta)
        try:
            sol = newton_solve(p, u, tol=tol, max_iter=max_iter)
        except (NoConvergence, SingularJacobian) as exc:
            raise StallAt(beta, exc, trace) from exc
        u = sol.u
        trace.rows.append(ContinuationRow(
            beta=beta, residual_norm=sol.residual_norm, I_value=sol.I_value,
            newton_iters=sol.newton_iters, u=u,
            **monitored_quantities(u, p0.oversample)))
    return trace


# -- multiplicity search ------------------------------------------------------


@lru_cache(maxsize=None)
def _phase_table(M: int):
    """The scan grid theta_m = 2 pi m / PHASE_GRID and the table
    e^{i k theta_m}, k = -M..M, of ``max_time_correlation``; built once per M."""
    thetas = 2.0 * np.pi * np.arange(PHASE_GRID) / PHASE_GRID
    table = np.exp(1j * np.outer(thetas, np.arange(-M, M + 1)))
    for a in (thetas, table):
        a.flags.writeable = False
    return thetas, table


def max_time_correlation(u1: SpectralField, u2: SpectralField):
    """max over theta of <u1(., . + theta), u2> / (||u1|| ||u2||), with argmax.

    The correlation is a trig polynomial in theta (coefficients from the
    k-axis transform), scanned on a dense grid and refined by 1-D search.
    """
    n1, n2 = u1.l2(), u2.l2()
    if n1 < 1e-15 and n2 < 1e-15:
        return 1.0, 0.0
    if n1 < 1e-15 or n2 < 1e-15:
        return 0.0, 0.0
    u1, u2 = unify(u1, u2)
    ck = np.sum(u1.coeffs * np.conj(u2.coeffs), axis=0)  # index k + M
    ks = np.arange(-u1.M, u1.M + 1)

    def corr(theta):
        return float(np.real(np.sum(ck * np.exp(1j * ks * theta)))) / (n1 * n2)

    thetas, table = _phase_table(u1.M)
    vals = np.real(table @ ck) / (n1 * n2)
    i0 = int(np.argmax(vals))
    dt = 2.0 * np.pi / PHASE_GRID
    res = scipy.optimize.minimize_scalar(
        lambda th: -corr(th), bounds=(thetas[i0] - 2 * dt, thetas[i0] + 2 * dt),
        method="bounded", options={"xatol": 1e-13})
    if -res.fun >= vals[i0]:
        return float(-res.fun), float(res.x % (2.0 * np.pi))
    return float(vals[i0]), float(thetas[i0])


def _seed_fields(p: PenalizedProblem, n_seeds: int, master_seed: int):
    """Deterministic seed ladder: zero, random fields of growing amplitude,
    and concentrated high-temporal-frequency (Eplus) directions."""
    seeds = []
    for i in range(n_seeds):
        if i == 0:
            seeds.append(SpectralField.zeros(p.M))
            continue
        amp = 0.3 * 1.15**i
        if i % 2 == 1:
            rf = random_field((master_seed, 101, i), p.M, SubspaceTag.ALL, 0.3)
        else:
            level = min(2 + (i // 2) * 2, p.M)
            rf = embed(random_field((master_seed, 202, i), level,
                                    SubspaceTag.EPLUS, 0.0), p.M)
        seeds.append(amp * rf)
    return seeds


def dedup_solutions(found, dedup_threshold: float = 0.99):
    """Keep one representative per time-translation class (first found wins)."""
    distinct = []
    for sol in found:
        if not any(max_time_correlation(sol.u, rep.u)[0] > dedup_threshold
                   for rep in distinct):
            distinct.append(sol)
    return distinct


def multi_seed_search(p: PenalizedProblem, n_seeds: int,
                      dedup_threshold: float = 0.99, master_seed: int = 0,
                      tol: float = 1e-10, max_iter: int = 60):
    """Newton from a deterministic seed ladder, deduplicated modulo time
    translation, sorted by functional value."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    found = []
    for seed_u in _seed_fields(p, n_seeds, master_seed):
        try:
            sol = newton_solve(p, seed_u, tol=tol, max_iter=max_iter)
        except (NoConvergence, SingularJacobian):
            continue
        found.append(sol)
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


def linking_report(p: PenalizedProblem, l_values, rho_values=(0.25, 0.5, 1.0, 2.0),
                   n_starts: int = 5, n_sphere: int = 64, master_seed: int = 0,
                   maxiter: int = 500) -> dict:
    """Per-level diagnostics of the linking geometry.

    For each l: M(l) = max of the functional over the finite subspace of
    temporally dominated modes with lattice weight <= l (multi-start ascent;
    the growth of F makes the functional proper on the subspace), and the
    sampled infimum of the functional over energy-norm spheres orthogonal to
    the previous level.  Reports whether M(l) is nondecreasing.
    """
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
                                          options={"maxiter": maxiter})
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
