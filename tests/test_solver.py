import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from wavetorus.dalembert import apply_box
from wavetorus.errors import NoConvergence, SingularJacobian, StallAt
from wavetorus.nonlinearity import Nonlinearity, TrigPolynomial
from wavetorus.solver import (
    PHASE_GRID,
    BetaSchedule,
    PenalizedProblem,
    _coarse_truncation,
    _dense_jacobian,
    _f_hat,
    _grid_side,
    _linear_solver,
    _phase_scan,
    _solve_bytes,
    continuation_beta,
    critical_identity_gap,
    dedup_solutions,
    functional_I,
    linking_report,
    max_time_correlation,
    monitored_quantities,
    multi_seed_search,
    newton_solve,
    pack,
    pair,
    penalized_symbol,
    residual,
    time_derivative,
    unpack,
)
from wavetorus.spectral import (
    SpectralField,
    SubspaceTag,
    embed,
    lattice,
    project,
    random_field,
    synthesize,
    time_translate,
    truncate,
)
from wavetorus.verify import mms_problem

seeds = st.integers(0, 2**31 - 1)


def every_mode(M):
    """The mask of every half mode, under which ``_dense_jacobian`` fills J."""
    return np.ones(lattice(M).n_half, dtype=bool)


def zero_nl():
    """f identically 0: isolates the quadratic parts of the system."""
    return Nonlinearity(s=3.0, a=TrigPolynomial.constant(0.0), m=None,
                        b=TrigPolynomial.constant(0.0))


class FixedSource:
    """Test hook: f(x, u) = g(x, t) independent of u."""

    s = 3.0

    def __init__(self, g_field, M):
        self.g_field = g_field
        self.M = M

    def values(self, x, u, order=0):
        if order == 0:
            return synthesize(self.g_field, u.shape[0], u.shape[1]).values
        return np.zeros_like(u)

    def potential_values(self, x, u):
        return synthesize(self.g_field, u.shape[0], u.shape[1]).values * u


def test_residual_zero_at_origin(default_nl):
    p = PenalizedProblem(M=8, beta=1e-2, nl=default_nl)
    assert residual(p, SpectralField.zeros(8)).l2() <= 1e-14


def test_residual_linear_probe():
    M = 8
    g = random_field(21, M, SubspaceTag.ALL, 0.4)
    p = PenalizedProblem(M=M, beta=1e-2, nl=FixedSource(g, M), sigma=1)
    u = random_field(22, M, SubspaceTag.ALL, 0.4)
    R = residual(p, u)
    w = project(u, SubspaceTag.EPERP)
    expected_perp = apply_box(w) - project(g, SubspaceTag.EPERP)
    got_perp = project(R, SubspaceTag.EPERP)
    assert (got_perp - expected_perp).l2() <= 1e-11 * max(1.0, g.l2())


def test_residual_manufactured_zero(default_nl):
    target, p = mms_problem(default_nl, 0.5, 16, 1e-3, seed=5)
    assert residual(p, target).l2() <= 1e-11


def test_functional_zero_at_origin(default_nl):
    p = PenalizedProblem(M=8, beta=1e-2, nl=default_nl)
    assert functional_I(p, SpectralField.zeros(8)) == pytest.approx(0.0, abs=1e-13)


def test_functional_pure_kernel_quadratic_part():
    beta = 0.37
    p = PenalizedProblem(M=8, beta=beta, nl=zero_nl())
    v = SpectralField.from_modes(8, {(1, 2): 0.5})  # cos(2(x + t))
    expected = -(5.0 * beta / 2.0) * np.pi**2  # -(beta/2)(pi^2 + 4 pi^2)
    assert functional_I(p, v) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("beta", [1e-1, 1e-4])
def test_gradient_consistency(default_nl, sigma, beta):
    p = PenalizedProblem(M=10, beta=beta, nl=default_nl, sigma=sigma)
    for trial in range(5):
        u = random_field((50, trial), 10, SubspaceTag.ALL, 0.4)
        phi = random_field((51, trial), 10, SubspaceTag.ALL, 0.4)
        h = 1e-5
        fd = (functional_I(p, u + h * phi) - functional_I(p, u - h * phi)) / (2 * h)
        pr = pair(residual(p, u), phi)
        assert abs(fd - pr) <= 1e-5 * max(abs(pr), 1.0)


def test_pack_unpack_round_trip():
    u = random_field(33, 12, SubspaceTag.ALL, 0.2)
    v = unpack(pack(u), 12)
    assert (v - u).l2() == 0.0


def test_jacobian_matches_finite_differences(default_nl):
    M = 4
    p = PenalizedProblem(M=M, beta=1e-2, nl=default_nl)
    u = random_field(8, M, SubspaceTag.ALL, 0.3)
    J = _dense_jacobian(p, u, every_mode(p.M))()
    x0 = pack(u)
    n = x0.size
    h = 1e-6
    J_fd = np.empty((n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = h
        rp = pack(residual(p, unpack(x0 + e, M)))
        rm = pack(residual(p, unpack(x0 - e, M)))
        J_fd[:, c] = (rp - rm) / (2 * h)
    assert np.max(np.abs(J - J_fd)) <= 1e-5 * max(1.0, np.max(np.abs(J)))


def complex_jacobian_oracle(p, u):
    """The Jacobian through the full complex mode matrix A and its real
    column combinations D (the construction the gathered fill replaced)."""
    lat = lattice(p.M)
    mode_rows, mode_cols = np.nonzero(lat.mask)
    pos = np.full(lat.shape, -1)
    pos[mode_rows, mode_cols] = np.arange(lat.n_modes)
    h_idx = pos[lat.half_rows, lat.half_cols]
    m_idx = pos[2 * lat.jmax - lat.half_rows, 2 * p.M - lat.half_cols]
    z_idx = pos[lat.jmax, p.M]
    gh = _f_hat(p, u, 1)
    big = lattice(2 * p.M)
    jj = lat.J[mode_rows, mode_cols]
    kk = lat.K[mode_rows, mode_cols]
    dj = jj[:, None] - jj[None, :]
    dk = kk[:, None] - kk[None, :]
    A = -p.sigma * gh.coeffs[dj + big.jmax, dk + 2 * p.M]
    diag = penalized_symbol(p)[mode_rows, mode_cols]
    A[np.arange(lat.n_modes), np.arange(lat.n_modes)] += diag
    D = np.empty((lat.n_modes, lat.n_real), dtype=np.complex128)
    D[:, 0] = A[:, z_idx]
    D[:, 1:1 + lat.n_half] = A[:, h_idx] + A[:, m_idx]
    D[:, 1 + lat.n_half:] = 1j * (A[:, h_idx] - A[:, m_idx])
    J = np.empty((lat.n_real, lat.n_real), dtype=np.float64)
    J[0, :] = D[z_idx, :].real
    J[1:1 + lat.n_half, :] = D[h_idx, :].real
    J[1 + lat.n_half:, :] = D[h_idx, :].imag
    return J


@pytest.mark.parametrize("oversample", [2, 4])
@pytest.mark.parametrize("sigma", [1, -1])
def test_jacobian_bit_identical_to_complex_construction(default_nl, sigma, oversample):
    for M in [*range(1, 13), 24]:
        p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl, sigma=sigma,
                             oversample=oversample)
        u = random_field((60, M), M, SubspaceTag.ALL, 0.4)
        J = _dense_jacobian(p, u, every_mode(M))()
        assert np.array_equal(J, complex_jacobian_oracle(p, u)), M
        n = J.shape[0]
        bordered = _dense_jacobian(p, u, every_mode(M))(
            np.full((n + 1, n + 1), np.nan, order="F"))
        assert np.array_equal(bordered[:n, :n], J), M


def test_forced_jacobian_bit_identical_to_complex_construction(default_nl):
    _, p = mms_problem(default_nl, 0.5, 12, 1e-3, seed=5)
    u = random_field(61, 12, SubspaceTag.ALL, 0.4)
    assert np.array_equal(_dense_jacobian(p, u, every_mode(12))(),
                          complex_jacobian_oracle(p, u))


@pytest.mark.parametrize("M", [12, 24])
def test_jacobian_fill_bit_identical_at_every_panel_height(default_nl, monkeypatch, M):
    # one row per panel (budgets below and at n_half), 7-row panels with a
    # shorter last one, one panel of exactly n_half rows, and a height beyond
    # n_half; plain, bordered (the border is left as it was) and as the
    # Levenberg refill dgetrf receives
    from wavetorus import pool, solver

    p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl)
    u = random_field((63, M), M, SubspaceTag.ALL, 0.4)
    oracle = complex_jacobian_oracle(p, u)
    n, nh = lattice(M).n_real, lattice(M).n_half
    assert nh % 7
    t_vec = pack(time_derivative(u))
    anchor = t_vec / np.linalg.norm(t_vec)
    factored = []

    class CapturingLapack:
        def __getattr__(self, name):
            return getattr(pool.lapack(), name)

        def dgetrf(self, a, overwrite_a=0):
            factored.append(a.copy(order="F"))
            return pool.lapack().dgetrf(a, overwrite_a=overwrite_a)

    monkeypatch.setattr(solver, "lapack", CapturingLapack)
    for entries in (1, nh, 7 * nh, nh * nh, 3 * nh * nh):
        monkeypatch.setattr(solver, "_PANEL_ENTRIES", entries)
        plain = _dense_jacobian(p, u, every_mode(M))()
        assert np.array_equal(plain, oracle), entries
        bordered = _dense_jacobian(p, u, every_mode(M))(
            np.full((n + 1, n + 1), np.nan, order="F"))
        assert np.array_equal(bordered[:n, :n], oracle), entries
        assert np.isnan(bordered[n]).all() and np.isnan(bordered[:, n]).all()
        factored.clear()
        _linear_solver(p, u, anchor)[1](1e-2)
        newton, refill = factored
        assert np.array_equal(newton[:n, :n], oracle), entries
        damped = plain.copy()
        damped[range(n), range(n)] += 1e-2
        assert np.array_equal(refill[:n, :n], damped), entries
        assert np.array_equal(refill[:n, n], anchor) and np.array_equal(refill[n, :n], anchor)


def test_jacobian_fill_holds_no_table_of_n_half_squared(default_nl):
    # the fill into a preallocated buffer gathers in row panels: its
    # temporaries stay below a quarter of one n_half x n_half float64
    # block, and the cached positions are O(n_half)
    import tracemalloc
    from dataclasses import fields as dataclass_fields

    from wavetorus.spectral import jacobian_gather

    M = 40
    p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl)
    u = random_field((64, M), M, SubspaceTag.ALL, 0.4)
    n, nh = lattice(M).n_real, lattice(M).n_half
    out = np.empty((n + 1, n + 1), order="F")
    fill = _dense_jacobian(p, u, every_mode(p.M))
    fill(out)
    tracemalloc.start()
    try:
        fill(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < nh * nh * 8 / 4
    tab = jacobian_gather(M)
    sizes = [np.size(getattr(tab, f.name)) for f in dataclass_fields(tab)]
    assert max(sizes) == nh


@pytest.mark.parametrize("M", [24, 32, 40, 28])
@pytest.mark.parametrize("forced", [True, False])
def test_dense_step_peak_within_the_pool_memory_model(default_nl, monkeypatch, M, forced):
    # the tracemalloc peak of one Newton step (fill, LU, line search, the
    # functional of the failed state) is what multi_seed_search tells the
    # pool one solve holds, and more than its (n_c + 1)^2 buffer; M = 28
    # runs above a DENSE_LIMIT lowered to M = 24's unknowns, so the GMRES
    # solves with the LU of the modes of weight <= 7
    import tracemalloc

    import wavetorus.solver as solver

    if M == 28:
        monkeypatch.setattr(solver, "DENSE_LIMIT", lattice(24).n_real)
    if forced:  # square system
        target, p = mms_problem(default_nl, 0.5, M, 1e-3, seed=5)
        u0 = embed(truncate(target, M // 2), M)
    else:  # bordered with the phase row
        p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl)
        u0 = random_field((65, M), M, SubspaceTag.ALL, 0.3)

    def step():
        try:
            newton_solve(p, u0, max_iter=1)
        except NoConvergence:
            pass

    step()  # builds the per-M caches and loads LAPACK
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * (lattice(_coarse_truncation(M)).n_real + 1) ** 2 < peak <= _solve_bytes(p)


def test_pool_memory_model_keeps_two_workers_up_to_m36(default_nl):
    # the docstring's count on two cores: share_work runs min(2, this, ...)
    # workers, at least one
    from wavetorus.pool import POOL_BYTES

    workers = [POOL_BYTES // _solve_bytes(PenalizedProblem(M=M, beta=1e-3, nl=default_nl))
               for M in (33, 34, 35, 36, 37, 64)]
    assert [min(2, w) for w in workers] == [2, 2, 2, 2, 1, 0]


def complex_fft_f_hat(p, u, order):
    """f^(order)(x, u) on the padded grid, synthesized by np.fft.ifft2 and
    analyzed by np.fft.fft2, on the lattice of M (order 0) or 2M."""
    n = _grid_side(p)
    lat = lattice(u.M)
    A = np.zeros((n, n), dtype=np.complex128)
    A[(lat.J % n)[lat.mask], (lat.K % n)[lat.mask]] = u.coeffs[lat.mask]
    U = (np.fft.ifft2(A) * (n * n)).real
    F = np.fft.fft2(p.nl.values(np.pi * np.arange(n) / n, U, order)) / (n * n)
    out = lattice(p.M if order == 0 else 2 * p.M)
    return np.where(out.mask, F[out.J % n, out.K % n], 0.0)


@pytest.mark.parametrize("sigma", [1, -1])
def test_solver_transforms_pinned_to_complex_fft(default_nl, sigma):
    """The solver's transforms stay the complex ifft2/fft2, bit for bit.

    The grid norms take a pruned real inverse transform
    (``spectral.abs_blocks``); the solver does not.  Switching the solver's
    ``synthesize`` to that real path changed residuals at rounding level
    only, yet it flipped one cold seed of the 32-seed M=24 ``multi``
    search: 13 distinct solutions instead of the reference 14, in 2 of 2
    runs.  Moving the solver to real FFTs is therefore a change of its own,
    with its own measurements and re-recorded references, and it must
    replace this oracle.
    """
    p = PenalizedProblem(M=8, beta=1e-3, nl=default_nl, sigma=sigma)
    u = random_field(62, 8, SubspaceTag.ALL, 0.3)
    expected = (np.where(lattice(8).mask, penalized_symbol(p) * u.coeffs, 0.0)
                - sigma * complex_fft_f_hat(p, u, 0))
    assert np.array_equal(residual(p, u).coeffs, expected)
    assert np.array_equal(_f_hat(p, u, 1).coeffs, complex_fft_f_hat(p, u, 1))


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(1, 16), st.sampled_from([1, -1]))
def test_weighted_jacobian_is_symmetric(default_nl, seed, M, sigma):
    # J is the Hessian of I under the pairing, whose packed weights are 1, 2, ..., 2
    p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl, sigma=sigma)
    u = random_field(seed, M, SubspaceTag.ALL, 0.4)
    J = _dense_jacobian(p, u, every_mode(p.M))()
    WJ = np.r_[1.0, np.full(J.shape[0] - 1, 2.0)][:, None] * J
    assert np.max(np.abs(WJ - WJ.T)) <= 1e-13 * np.max(np.abs(WJ))


@settings(max_examples=30, deadline=None)
@given(seeds, seeds, st.integers(1, 12), st.sampled_from([1, -1]),
       st.sampled_from([1e-1, 1e-4]))
def test_gradient_of_functional_is_residual(default_nl, seed_u, seed_phi, M, sigma, beta):
    p = PenalizedProblem(M=M, beta=beta, nl=default_nl, sigma=sigma)
    u = random_field(seed_u, M, SubspaceTag.ALL, 0.4)
    phi = random_field(seed_phi, M, SubspaceTag.ALL, 0.4)
    h = 1e-5
    fd = (functional_I(p, u + h * phi) - functional_I(p, u - h * phi)) / (2 * h)
    pr = pair(residual(p, u), phi)
    assert abs(fd - pr) <= 1e-5 * max(abs(pr), 1.0)


def test_newton_from_exact_seed_is_immediate(default_nl):
    target, p = mms_problem(default_nl, 0.5, 12, 1e-3, seed=6)
    sol = newton_solve(p, target, tol=1e-10, max_iter=5)
    assert sol.newton_iters <= 2
    assert (sol.u - target).l2() <= 1e-12


def test_newton_mms_recovery_and_quadratic_convergence(default_nl):
    target, p = mms_problem(default_nl, 0.5, 16, 1e-3, seed=7)
    cold = embed(truncate(target, 8), 16)
    sol = newton_solve(p, cold, tol=1e-12, max_iter=20)
    assert (sol.u - target).l2() <= 1e-9
    hist = [r for r in sol.residual_history if r > 1e-12]
    assert len(hist) >= 3
    r0, r1, r2 = hist[-3], hist[-2], hist[-1]
    assert r1 <= 100.0 * r0**2 or r1 <= 1e-9
    assert r2 <= 100.0 * r1**2 or r2 <= 1e-9


def test_newton_no_convergence_carries_best(default_nl):
    target, p = mms_problem(default_nl, 0.3, 10, 1e-3, seed=8)
    with pytest.raises(NoConvergence) as exc:
        newton_solve(p, SpectralField.zeros(10), tol=1e-13, max_iter=1)
    best = exc.value.best
    assert best is not None and not best.converged
    assert best.residual_norm > 0 and len(best.residual_history) == 2


def test_newton_iterative_path_matches_dense(default_nl, monkeypatch):
    # above DENSE_LIMIT Newton reaches the dense root, with the coarse LU of
    # the modes of weight <= M // 4 and with the one mode (0, 0)
    import wavetorus.solver as solver

    target, p = mms_problem(default_nl, 0.5, 10, 1e-3, seed=9)
    cold = embed(truncate(target, 6), 10)
    dense = newton_solve(p, cold, tol=1e-11, max_iter=20)
    for limit, M_c in ((lattice(10).n_real - 1, 2), (0, 0)):
        monkeypatch.setattr(solver, "DENSE_LIMIT", limit)
        assert _coarse_truncation(10) == M_c
        iterative = newton_solve(p, cold, tol=1e-11, max_iter=25)
        assert (dense.u - iterative.u).l2() <= 1e-8


def test_newton_above_dense_limit_needs_no_scipy_sparse(default_nl, monkeypatch):
    # the Krylov solve above DENSE_LIMIT is the package's own GMRES: with
    # scipy.sparse unimportable, the solve with the coarse LU of weight <= 4
    # takes the dense solve's steps to its root
    import sys

    import wavetorus.solver as solver

    target, p = mms_problem(default_nl, 0.5, 16, 1e-3, seed=5)
    cold = embed(truncate(target, 8), 16)
    dense = newton_solve(p, cold)
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    monkeypatch.setitem(sys.modules, "scipy.sparse.linalg", None)
    monkeypatch.setattr(solver, "DENSE_LIMIT", lattice(16).n_real - 1)
    assert _coarse_truncation(16) == 4
    iterative = newton_solve(p, cold)
    assert iterative.newton_iters == dense.newton_iters
    assert (iterative.u - dense.u).l2() <= 1e-12 * dense.u.l2()


@pytest.mark.parametrize("amplitude, line_search", [(1e103, True), (1e60, False)])
def test_newton_non_finite_residual_raises(default_nl, amplitude, line_search):
    # 1e103 overflows the grid values to a NaN norm, 1e60 the norm to inf
    p = PenalizedProblem(M=8, beta=1e-3, nl=default_nl)
    seed_u = amplitude * random_field((0, 55), 8, SubspaceTag.ALL, 0.5)
    with np.errstate(all="ignore"), pytest.raises(NoConvergence, match="non-finite") as exc:
        newton_solve(p, seed_u, line_search=line_search)
    best = exc.value.best
    assert not best.converged and best.newton_iters == 0
    assert not np.isfinite(best.residual_norm)
    assert best.u is seed_u


@pytest.mark.parametrize("M", [8, 12])
@pytest.mark.parametrize("anchored", [False, True])
def test_linear_solver_iterative_path_matches_dense(default_nl, monkeypatch, M, anchored):
    # above DENSE_LIMIT the GMRES solves with the LU of the coarse modes as the
    # coarse half of its preconditioner: of weight <= M // 4 below a
    # DENSE_LIMIT just under n_real, the one mode (0, 0) at DENSE_LIMIT = 0,
    # whose block and phase row fit a buffer of (1 + 1)^2 entries.  Both
    # solves, and the Levenberg one, match the dense ones
    import wavetorus.solver as solver

    p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl)
    u = 0.5 * random_field((M, 31), M, SubspaceTag.ALL, 0.5)
    anchor = None
    if anchored:
        t_vec = pack(time_derivative(u))
        anchor = t_vec / np.linalg.norm(t_vec)
    rhs = -pack(residual(p, u))
    solve_dense, levenberg_dense = _linear_solver(p, u, anchor)
    dense = solve_dense(rhs)
    damped_dense = levenberg_dense(1e-2)(rhs)
    monkeypatch.setattr(solver, "DENSE_LIMIT", lattice(M).n_real - 1)
    assert _coarse_truncation(M) == M // 4
    krylov = _linear_solver(p, u, anchor)[0](rhs)
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    assert lattice(_coarse_truncation(M)).n_real == 1
    damped = _linear_solver(p, u, anchor, np.full(4, np.nan))[1](1e-2)(rhs)
    assert dense.shape == krylov.shape == damped.shape == rhs.shape
    assert np.linalg.norm(krylov - dense) <= 1e-8 * np.linalg.norm(dense)
    assert np.linalg.norm(damped - damped_dense) <= 1e-8 * np.linalg.norm(damped_dense)
    if anchored:  # the phase condition holds to each solver's own accuracy
        assert abs(anchor @ dense) <= 1e-13 * np.linalg.norm(dense)
        assert abs(anchor @ krylov) <= 1e-8 * np.linalg.norm(krylov)
        assert abs(anchor @ damped) <= 1e-8 * np.linalg.norm(damped)


@pytest.mark.parametrize("M", [4, 8, 12])
@pytest.mark.parametrize("anchored", [False, True])
def test_dense_linear_solver_bit_identical_to_c_ordered_lu(default_nl, M, anchored):
    # the in-place Fortran-ordered LU factors the matrix lu_factor copies
    # from the C-ordered bordered system, so the solves agree bit for bit
    p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl)
    u = 0.5 * random_field((M, 32), M, SubspaceTag.ALL, 0.5)
    n = lattice(M).n_real
    border = []
    if anchored:
        t_vec = pack(time_derivative(u))
        border.append(t_vec / np.linalg.norm(t_vec))
    dim = n + len(border)
    oracle = np.zeros((dim, dim))
    oracle[:n, :n] = complex_jacobian_oracle(p, u)
    for i, a in enumerate(border, start=n):
        oracle[:n, i] = a
        oracle[i, :n] = a
    rhs = -pack(residual(p, u))

    def oracle_solve(matrix):
        lu = scipy.linalg.lu_factor(matrix)
        return scipy.linalg.lu_solve(lu, np.append(rhs, np.zeros(dim - n)))[:n]

    solve, levenberg = _linear_solver(p, u, *border)
    assert np.array_equal(solve(rhs), oracle_solve(oracle))
    for mu in (1e-4, 1.0, 1e4):
        damped = oracle.copy()
        damped[np.arange(n), np.arange(n)] += mu
        assert np.array_equal(levenberg(mu)(rhs), oracle_solve(damped))


_LAPACK_STEPS = """
import hashlib, json, sys
import numpy as np
from wavetorus import make_nonlinearity, pool
from wavetorus.solver import (PenalizedProblem, _dense_jacobian, _linear_solver,
                              residual, time_derivative)
from wavetorus.spectral import SubspaceTag, lattice, pack, random_field

if sys.argv[1] == "fail":
    pool._bundled_openblas = lambda package: None
nl = make_nonlinearity(3, [{"j": 0, "c": 1.0}, {"j": 1, "c_sin": 0.5}],
                       {"kind": "tanh", "alpha": 1.0}, [])
cases, steps = [], []
for M in (8, 12):
    p = PenalizedProblem(M=M, beta=1e-3, nl=nl)
    u = 0.5 * random_field((M, 34), M, SubspaceTag.ALL, 0.5)
    t_vec = pack(time_derivative(u))
    anchor = t_vec / np.linalg.norm(t_vec)
    rhs = -pack(residual(p, u))
    solve, _ = _linear_solver(p, u)
    bordered, levenberg = _linear_solver(p, u, anchor)
    for case, step in (((None, 0.0), solve(rhs)), ((anchor, 0.0), bordered(rhs)),
                       ((anchor, 1e-2), levenberg(1e-2)(rhs))):
        cases.append((p, u, rhs) + case)
        steps.append(step)
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import scipy.linalg

def oracle(p, u, rhs, anchor, mu):
    n = rhs.size
    dim = n if anchor is None else n + 1
    A = np.zeros((dim, dim))
    A[:n, :n] = _dense_jacobian(p, u, np.ones(lattice(p.M).n_half, dtype=bool))()
    if anchor is not None:
        A[:n, n] = anchor
        A[n, :n] = anchor
    if mu:
        A[range(n), range(n)] += mu
    lu = scipy.linalg.lu_factor(A)
    return scipy.linalg.lu_solve(lu, np.append(rhs, np.zeros(dim - n)))[:n]

module = pool.lapack()
print(json.dumps({
    "loader": getattr(module, "__name__", type(module).__name__), "before": before,
    "wrappers": [scipy.linalg.lapack.dgetrf is module.dgetrf,
                 scipy.linalg.lapack.dgetrs is module.dgetrs],
    "steps": [hashlib.sha256(step.tobytes()).hexdigest() for step in steps],
    "oracle": [step.tobytes() == oracle(*case).tobytes()
               for case, step in zip(cases, steps)]}))
"""


@lru_cache(maxsize=None)
def _lapack_steps(mode):
    """Dense steps at M = 8 and 12 (plain, bordered, Levenberg at mu = 1e-2)
    in a fresh process, where no test module has imported scipy.linalg;
    ``mode`` "fail" makes the lookup of scipy's bundled OpenBLAS find none."""
    import json
    import os
    import subprocess
    import sys

    import wavetorus

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(wavetorus.__file__))}
    return json.loads(subprocess.run([sys.executable, "-c", _LAPACK_STEPS, mode], env=env,
                                     capture_output=True, text=True, check=True).stdout)


def test_dense_steps_through_bundled_openblas_match_lu_factor():
    # the solver calls dgetrf and dgetrs on scipy's bundled OpenBLAS through
    # ctypes, with no scipy module loaded, and its steps are the bytes of
    # lu_factor/lu_solve
    from wavetorus import pool

    if pool._bundled_openblas("scipy") is None:
        pytest.skip("scipy does not bundle OpenBLAS here")
    seen = _lapack_steps("load")
    assert seen["loader"] == "BundledLapack"
    assert seen["before"] == []
    assert seen["wrappers"] == [False, False]
    assert seen["oracle"] == [True] * 6


def test_dense_steps_unchanged_when_bundled_openblas_is_not_found():
    # without a bundled OpenBLAS the solver takes scipy.linalg.lapack's f2py
    # wrappers, which call the same routines, so the same step bytes
    seen = _lapack_steps("fail")
    assert seen["loader"] == "scipy.linalg.lapack"
    assert seen["wrappers"] == [True, True]
    assert seen["oracle"] == [True] * 6
    assert seen["steps"] == _lapack_steps("load")["steps"]


def _ladder_case(nl, M=8):
    """A seed steady up to 1e-10, so the phase anchor, and with it the
    n_real + 1 rows of the bordered system, appears only after the first
    step; the Levenberg ladder runs near the end of its 30 steps."""
    p = PenalizedProblem(M=M, beta=1e-3, nl=nl)
    r = random_field((0, 1), M, SubspaceTag.ALL, 0.3)
    return p, SpectralField(M, np.where(lattice(M).K == 0, 2.0, 1e-10) * r.coeffs)


def test_newton_reused_buffers_match_fresh_ones(default_nl, monkeypatch):
    # the Levenberg systems refill the buffer of the Newton system
    import wavetorus.solver as solver

    p, seed_u = _ladder_case(default_nl)
    linear_solver = solver._linear_solver
    steps = []

    def run(fresh):
        def spy(p, u, anchor=None, work=None, samples=None):
            solve, levenberg = linear_solver(p, u, anchor, None if fresh else work, samples)
            steps.append("." if anchor is None else "A")

            def counted(mu):
                steps.append("L")
                return levenberg(mu)

            return solve, counted

        monkeypatch.setattr(solver, "_linear_solver", spy)
        steps.clear()
        with pytest.raises(NoConvergence) as exc:
            newton_solve(p, seed_u, max_iter=30)
        return exc.value.best, "".join(steps)

    (reused, pattern), (fresh, fresh_pattern) = run(False), run(True)
    assert pattern == fresh_pattern
    assert pattern.startswith(".") and "A" in pattern and "L" in pattern, pattern
    assert reused.residual_history == fresh.residual_history
    assert reused.u.coeffs.tobytes() == fresh.u.coeffs.tobytes()
    assert reused.I_value == fresh.I_value


@pytest.mark.parametrize("anchored", [False, True])
def test_dense_linear_solver_raises_on_zero_pivot(default_nl, monkeypatch, anchored):
    # a fill of c I: the system with c = 0, and with c = -1 the Levenberg
    # system at mu = 1, have an exactly zero pivot, bordered or not
    import wavetorus.solver as solver

    M = 4
    p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl)
    u = 0.5 * random_field((M, 33), M, SubspaceTag.ALL, 0.5)
    n = lattice(M).n_real
    anchor = None
    if anchored:
        t_vec = pack(time_derivative(u))
        anchor = t_vec / np.linalg.norm(t_vec)

    def scaled_identity(c):
        def fill(out):
            out[:n, :n] = c * np.eye(n)
            return out
        return lambda p, u, half, samples=None, f_u=None: fill

    monkeypatch.setattr(solver, "_dense_jacobian", scaled_identity(0.0))
    with pytest.raises(SingularJacobian, match="zero pivot"):
        _linear_solver(p, u, anchor)
    monkeypatch.setattr(solver, "_dense_jacobian", scaled_identity(-1.0))
    solve, levenberg = _linear_solver(p, u, anchor)
    rhs = np.arange(1.0, n + 1.0)
    step = solve(rhs)
    if anchored:  # -step + anchor c = rhs with <anchor, step> = 0
        assert np.allclose(step, (rhs @ anchor) * anchor - rhs, rtol=0, atol=1e-12 * n)
    else:
        assert np.array_equal(step, -rhs)
    with pytest.raises(SingularJacobian, match="zero pivot"):
        levenberg(1.0)
    assert np.all(np.isfinite(levenberg(1e-4)(rhs)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("anchored", [False, True])
def test_dense_linear_solver_raises_on_non_finite_jacobian(default_nl, monkeypatch,
                                                           bad, anchored):
    # LU runs without scipy's finiteness scan; the non-finite factor still
    # raises SingularJacobian, for the Newton system and the Levenberg one
    import wavetorus.solver as solver

    M = 4
    p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl)
    u = 0.5 * random_field((M, 33), M, SubspaceTag.ALL, 0.5)
    n = lattice(M).n_real
    anchor = None
    if anchored:
        t_vec = pack(time_derivative(u))
        anchor = t_vec / np.linalg.norm(t_vec)

    def identity_with(*entries):
        def fill(out):
            out[:n, :n] = np.eye(n)
            for row, col in entries:
                out[row, col] = bad
            return out
        return lambda p, u, half, samples=None, f_u=None: fill

    for entry in ((0, 0), (3, 1), (n - 1, n - 1)):
        monkeypatch.setattr(solver, "_dense_jacobian", identity_with(entry))
        with pytest.raises(SingularJacobian, match="non-finite"):
            _linear_solver(p, u, anchor)
    monkeypatch.setattr(solver, "_dense_jacobian", identity_with())
    solve, levenberg = _linear_solver(p, u, anchor)
    with pytest.raises(SingularJacobian, match="non-finite"):
        levenberg(bad)


def _ladder_mus(nl, monkeypatch):
    """The mus of the ladder case's Levenberg solves, the one at 1e-4
    failing as an exactly singular system does."""
    import wavetorus.solver as solver

    p, seed_u = _ladder_case(nl)
    linear_solver = solver._linear_solver
    mus = []

    def spy(p, u, anchor=None, work=None, samples=None):
        solve, levenberg = linear_solver(p, u, anchor, work, samples)

        def singular_first(mu):
            mus.append(mu)
            if mu == 1e-4:
                raise SingularJacobian("zero pivot")
            return levenberg(mu)

        return solve, singular_first

    monkeypatch.setattr(solver, "_linear_solver", spy)
    with pytest.raises(NoConvergence):
        newton_solve(p, seed_u, max_iter=30)
    return mus


def test_levenberg_ladder_skips_singular_mu(default_nl, monkeypatch):
    # a ladder step whose system is singular goes on with the next mu
    mus = _ladder_mus(default_nl, monkeypatch)
    assert mus[:2] == [1e-4, 1e-2], mus


def test_levenberg_ladder_skips_singular_mu_above_dense_limit(default_nl, monkeypatch):
    # above DENSE_LIMIT the same ladder runs, the GMRES with the coarse LU of
    # weight <= 2
    import wavetorus.solver as solver

    monkeypatch.setattr(solver, "DENSE_LIMIT", lattice(8).n_real - 1)
    mus = _ladder_mus(default_nl, monkeypatch)
    assert mus[:2] == [1e-4, 1e-2], mus


def test_criterion_09_branch_refined_above_dense_limit(default_nl, monkeypatch):
    # the (2, 2) branch solved at M = 24, embedded and solved at M = 48
    # above a DENSE_LIMIT lowered to M = 24's unknowns (coarse weight <= 12),
    # reaches the I of the dense M = 48 solve, within its 3 steps
    import wavetorus.solver as solver

    monkeypatch.setattr(solver, "DENSE_LIMIT", lattice(24).n_real)
    seed_u = (SpectralField.from_modes(24, {(2, 2): 1.25})
              + 0.08 * random_field((9, 2, 102), 24, SubspaceTag.ALL, 0.8))
    coarse = newton_solve(PenalizedProblem(M=24, beta=0.1, nl=default_nl), seed_u)
    fine = newton_solve(PenalizedProblem(M=48, beta=0.1, nl=default_nl), embed(coarse.u, 48))
    assert _coarse_truncation(48) == 12
    assert fine.newton_iters <= 3
    assert fine.I_value == pytest.approx(439.4605129079056, rel=1e-9)  # the dense solve's


def test_krylov_solve_that_does_not_converge_fails_fast(default_nl, monkeypatch):
    # with the one-mode coarse block (DENSE_LIMIT = 0) the first step's GMRES
    # solve does not converge at M = 20; it raises after at most its 10
    # restarts of _INNER_M products and one for the restart's residual, each
    # product one synthesis of the direction on the grid
    import wavetorus.solver as solver

    synthesize_values = solver.synthesize_values
    products = []

    def counted(*args):
        products.append(args)
        return synthesize_values(*args)

    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    monkeypatch.setattr(solver, "synthesize_values", counted)
    p = PenalizedProblem(M=20, beta=1e-3, nl=default_nl)
    seed_u = random_field((65, 20), 20, SubspaceTag.ALL, 0.3)
    with pytest.raises(SingularJacobian, match="iterative linear solve failed"):
        newton_solve(p, seed_u, max_iter=1)
    assert 0 < len(products) <= 11 * (solver._INNER_M + 1)


def test_newton_without_line_search_solves_once_per_step(default_nl, monkeypatch):
    # with line_search=False every trial is taken, so the natural-monotonicity
    # test makes no solve: one linear solve per Newton step
    import wavetorus.solver as solver

    linear_solver = solver._linear_solver
    solves = []

    def spy(p, u, anchor=None, work=None, samples=None):
        solve, levenberg = linear_solver(p, u, anchor, work, samples)

        def counted(rhs):
            solves.append(rhs)
            return solve(rhs)

        return counted, levenberg

    monkeypatch.setattr(solver, "_linear_solver", spy)
    p = PenalizedProblem(M=8, beta=1e-3, nl=default_nl)
    seed_u = 2.0 * random_field((12345, 55), 8, SubspaceTag.ALL, 0.5)
    sol = newton_solve(p, seed_u, line_search=False)
    assert sol.newton_iters > 0
    assert len(solves) == sol.newton_iters


@pytest.mark.parametrize("case", ["bordered", "forced", "ladder"])
def test_grid_reuse_bit_identical_to_resynthesis(default_nl, monkeypatch, case):
    # an accepted trial's padded-grid samples feed the next Jacobian; when
    # every Jacobian synthesizes its iterate again instead, the solve gives
    # the same bytes with one synthesis more per Newton step
    import wavetorus.solver as solver

    if case == "bordered":  # unforced, anchored at every step, converges
        p = PenalizedProblem(M=8, beta=1e-3, nl=default_nl)
        seed_u = 0.3 * random_field((8, 2), 8, SubspaceTag.ALL, 0.3)
    elif case == "forced":  # square system, converges
        target, p = mms_problem(default_nl, 0.5, 16, 1e-3, seed=5)
        seed_u = embed(truncate(target, 8), 16)
    else:  # ends in NoConvergence after the Levenberg ladder
        p, seed_u = _ladder_case(default_nl)
    linear_solver, synthesize_ = solver._linear_solver, solver.synthesize
    syntheses = []

    def counted(*args):
        syntheses.append(args)
        return synthesize_(*args)

    def resynthesizing(p, u, anchor=None, work=None, samples=None):
        return linear_solver(p, u, anchor, work)

    def run():
        syntheses.clear()
        try:
            sol = newton_solve(p, seed_u, max_iter=30)
        except NoConvergence as exc:
            sol = exc.best
        return sol, len(syntheses)

    monkeypatch.setattr(solver, "synthesize", counted)
    reused, n_reused = run()
    monkeypatch.setattr(solver, "_linear_solver", resynthesizing)
    fresh, n_fresh = run()
    assert reused.converged == fresh.converged == (case != "ladder")
    assert reused.newton_iters == fresh.newton_iters > 0
    assert reused.u.coeffs.tobytes() == fresh.u.coeffs.tobytes()
    assert (np.array(reused.residual_history).tobytes()
            == np.array(fresh.residual_history).tobytes())
    assert np.float64(reused.I_value).tobytes() == np.float64(fresh.I_value).tobytes()
    assert n_fresh - n_reused == reused.newton_iters


def test_per_problem_constants_are_cached_and_read_only(default_nl):
    # the symbol is one read-only array per (M, beta), built by the
    # expression it always had; the grid side is cached per problem shape
    from wavetorus.nonlinearity import grid_profiles
    from wavetorus.spectral import _grid_index

    M, beta = 8, 1e-3
    lat = lattice(M)
    p = PenalizedProblem(M=M, beta=beta, nl=default_nl)
    sym = penalized_symbol(p)
    assert penalized_symbol(replace(p, sigma=-1)) is sym
    assert np.array_equal(sym, np.where(lat.nonresonant, lat.symbol,
                                        beta * (-(lat.K.astype(np.float64) ** 2) - 1.0)))
    other = penalized_symbol(replace(p, beta=2 * beta))
    assert not np.array_equal(other, sym)
    assert np.array_equal(other[lat.nonresonant], sym[lat.nonresonant])
    assert np.array_equal(other[lat.resonant], 2 * sym[lat.resonant])  # doubling is exact
    n = _grid_side(p)
    assert _grid_side(replace(p, beta=2 * beta)) == n
    profiles = grid_profiles(default_nl, n)
    assert grid_profiles(default_nl, n) is profiles
    for array in (sym, profiles.a, profiles.b, *_grid_index(M, n, n)):
        with pytest.raises(ValueError):
            array[0] = 0


def test_residual_time_translation_equivariance():
    # the cubic family is exactly dealiased by the padded grid, so the
    # residual norm is translation-invariant to machine precision
    nl = Nonlinearity(s=3.0, a=TrigPolynomial((1.0,), (0.5,)), m=None,
                      b=TrigPolynomial.constant(0.0))
    p = PenalizedProblem(M=10, beta=1e-2, nl=nl)
    u = random_field(13, 10, SubspaceTag.ALL, 0.4)
    r0 = residual(p, u).l2()
    for theta in (0.3, 1.7, 5.0):
        r = residual(p, time_translate(u, theta)).l2()
        assert abs(r - r0) <= 1e-12 * max(r0, 1.0)


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(1, 16), st.sampled_from([1, -1]),
       st.floats(0.0, 2 * np.pi, allow_nan=False))
def test_residual_commutes_with_time_translation(seed, M, sigma, theta):
    # R(tau_theta u) = tau_theta R(u) coefficient by coefficient; the cubic
    # family is exactly dealiased, the tanh family's aliasing tail is not
    nl = Nonlinearity(s=3.0, a=TrigPolynomial((1.0,), (0.5,)), m=None,
                      b=TrigPolynomial.constant(0.0))
    p = PenalizedProblem(M=M, beta=1e-2, nl=nl, sigma=sigma)
    u = random_field(seed, M, SubspaceTag.ALL, 0.4)
    expected = time_translate(residual(p, u), theta).coeffs
    got = residual(p, time_translate(u, theta)).coeffs
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@settings(max_examples=50, deadline=None)
@given(seeds, st.integers(1, 16), st.sampled_from([1, -1]), st.sampled_from([1e-1, 1e-4]))
def test_residual_of_real_field_is_hermitian(default_nl, seed, M, sigma, beta):
    p = PenalizedProblem(M=M, beta=beta, nl=default_nl, sigma=sigma)
    u = random_field(seed, M, SubspaceTag.ALL, 0.4)
    assert u.is_hermitian(tol=0.0)
    assert residual(p, u).is_hermitian(tol=1e-13)


def test_residual_equivariance_with_bounded_part(default_nl):
    # the tanh part is not bandlimited; its pseudospectral tail sets the
    # equivariance scale, spectrally small for smooth moderate fields
    p = PenalizedProblem(M=10, beta=1e-2, nl=default_nl)
    u = 0.5 * random_field(13, 10, SubspaceTag.ALL, 0.8)
    r0 = residual(p, u).l2()
    for theta in (0.3, 1.7):
        r = residual(p, time_translate(u, theta)).l2()
        assert abs(r - r0) <= 1e-11 * max(r0, 1.0)


def test_self_correlation_of_translate_is_one():
    u = random_field(14, 12, SubspaceTag.ALL, 0.3)
    c, theta = max_time_correlation(u, time_translate(u, 0.7))
    assert abs(c - 1.0) <= 1e-10
    # u2(x, t) = u(x, t + 0.7) so the correlation peaks at theta = +0.7
    assert abs(theta - 0.7) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, st.integers(1, 24), st.floats(0.0, 0.5), st.floats(0.0, 1.0))
def test_time_correlation_refines_the_grid_maximum(s1, s2, M, decay, mix):
    # the Newton refinement never returns less than the scan's maximum, and
    # its argmax is a critical point of the trig polynomial c(theta)
    u1 = random_field(s1, M, SubspaceTag.ALL, decay)
    u2 = time_translate(u1, 1.0 + 2.0 * mix) + mix * random_field(s2, M, SubspaceTag.ALL, decay)
    c, theta = max_time_correlation(u1, u2)
    norms = u1.l2() * u2.l2()
    ck = np.sum(u1.coeffs * np.conj(u2.coeffs), axis=0)
    assert c >= np.max(_phase_scan(ck) / norms)
    ck, ks = ck / norms, np.arange(-M, M + 1)
    assert 0.0 <= theta < 2.0 * np.pi
    slope = np.real(1j * ks * ck) @ np.cos(ks * theta) - np.imag(1j * ks * ck) @ np.sin(ks * theta)
    assert abs(slope) <= 1e-9 * max(np.sum(np.abs(ks * ck)), 1e-300)


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, st.integers(1, 24), st.floats(0.0, 0.5), st.floats(0.0, 1.0))
def test_phase_scan_matches_trig_sum_table(s1, s2, M, decay, mix):
    # the FFT scan equals the explicit sum Re sum_k c_k e^{ik theta} on the
    # PHASE_GRID points to rounding, with the same grid argmax
    u1 = random_field(s1, M, SubspaceTag.ALL, decay)
    u2 = time_translate(u1, 1.0 + 2.0 * mix) + mix * random_field(s2, M, SubspaceTag.ALL, decay)
    ck = np.sum(u1.coeffs * np.conj(u2.coeffs), axis=0)
    thetas = 2.0 * np.pi * np.arange(PHASE_GRID) / PHASE_GRID
    table = np.real(np.exp(1j * np.outer(thetas, np.arange(-M, M + 1))) @ ck)
    scan = _phase_scan(ck)
    assert np.max(np.abs(scan - table)) <= 1e-14 * np.max(np.abs(table))
    assert np.argmax(scan) == np.argmax(table)


def test_phase_scan_aliases_wavenumbers_beyond_the_grid():
    # k and k + PHASE_GRID take the same values on the grid, so wavenumbers
    # past PHASE_GRID / 2 add up in their slot instead of overwriting it
    M = PHASE_GRID // 2 + 3
    ck = np.zeros(2 * M + 1, dtype=complex)
    ck[0], ck[PHASE_GRID] = 0.25, 0.5 - 0.5j  # k = -M and PHASE_GRID - M
    phase = 2.0 * np.pi * (M * np.arange(PHASE_GRID) % PHASE_GRID) / PHASE_GRID
    expected = np.real((0.75 - 0.5j) * np.exp(-1j * phase))  # M theta_m mod 2 pi
    assert np.max(np.abs(_phase_scan(ck) - expected)) <= 1e-14


def test_dedup_merges_translates(default_nl):
    from wavetorus.solver import SolutionState

    u = random_field(15, 10, SubspaceTag.ALL, 0.3)
    s1 = SolutionState(u, 0.0, 1.0, 0)
    s2 = SolutionState(time_translate(u, 0.7), 0.0, 1.0, 0)
    s3 = SolutionState(random_field(16, 10, SubspaceTag.ALL, 0.3), 0.0, 2.0, 0)
    kept = dedup_solutions([s1, s2, s3], 0.99)
    assert len(kept) == 2


def test_dedup_puts_rounding_level_fields_in_the_zero_class():
    # a field that is zero up to rounding (max|c| = 7e-16, yet an l2 norm
    # above 1e-15) correlates 1 with the exact zero and joins its class; an
    # O(1e-6) field stays a class of its own
    from wavetorus.solver import SolutionState

    zero = SpectralField.zeros(24)
    rf = random_field(19, 24, SubspaceTag.ALL, 0.0)
    rounding = (7e-16 / np.max(np.abs(rf.coeffs))) * rf
    small = (1e-6 / np.max(np.abs(rf.coeffs))) * rf
    assert rounding.l2() > 1e-15
    assert max_time_correlation(rounding, zero) == (1.0, 0.0)
    assert max_time_correlation(zero, rounding) == (1.0, 0.0)
    assert max_time_correlation(small, zero) == (0.0, 0.0)
    assert max_time_correlation(small, rounding) == (0.0, 0.0)
    assert max_time_correlation(small, time_translate(small, 0.4))[0] > 0.999
    sols = [SolutionState(u, 0.0, float(i), 0) for i, u in enumerate((zero, rounding, small))]
    assert [s.I_value for s in dedup_solutions(sols, 0.99)] == [0.0, 2.0]


def test_multi_seed_zero_problem(default_nl):
    p = PenalizedProblem(M=8, beta=1e-2, nl=default_nl)
    sols = multi_seed_search(p, 1, master_seed=1)
    assert len(sols) == 1
    assert sols[0].u.l2() == 0.0


@pytest.mark.parametrize("master_seed", [12345, 4242])
def test_multi_seed_pool_matches_one_worker(default_nl, monkeypatch, master_seed):
    # the thread pool returns what the serial loop does, bit for bit and in
    # the same order, whatever the worker count; every seed's Newton run,
    # failed ones included, takes the same steps.  The 8-worker run (more
    # workers than cores) switches threads every microsecond and starts from
    # empty lattice and gather caches, so their first builds race
    import sys

    from wavetorus import pool, solver
    from wavetorus.spectral import jacobian_gather

    p = PenalizedProblem(M=8, beta=1e-4, nl=default_nl)
    real_newton = solver.newton_solve

    def search(workers):
        histories = {}

        def newton(p, seed_u, **kw):
            key = seed_u.coeffs.tobytes()
            try:
                sol = real_newton(p, seed_u, **kw)
            except NoConvergence as exc:
                histories[key] = exc.best.residual_history
                raise
            histories[key] = sol.residual_history
            return sol

        monkeypatch.setattr(solver, "newton_solve", newton)
        monkeypatch.setattr(pool, "usable_cores", lambda: workers)
        return multi_seed_search(p, 8, master_seed=master_seed, max_iter=60), histories

    serial, serial_runs = search(1)
    assert len(serial_runs) == 8
    assert len(serial) == {12345: 1, 4242: 3}[master_seed]
    interval = sys.getswitchinterval()
    try:
        for workers in (2, 8):
            if workers == 8:
                lattice.cache_clear()
                jacobian_gather.cache_clear()
                sys.setswitchinterval(1e-6)
            pooled, pooled_runs = search(workers)
            assert pooled_runs == serial_runs
            assert ([s.u.coeffs.tobytes() for s in pooled]
                    == [s.u.coeffs.tobytes() for s in serial])
            assert [s.I_value for s in pooled] == [s.I_value for s in serial]
            assert ([s.residual_history for s in pooled]
                    == [s.residual_history for s in serial])
    finally:
        sys.setswitchinterval(interval)


def test_multi_seed_pool_keeps_seed_order_and_failure_handling(default_nl, monkeypatch):
    # seed 4 returns a time translate of seed 3's solution and finishes
    # first; the dedup still keeps seed 3's, as the serial loop does.
    # NoConvergence and SingularJacobian seeds are skipped, other errors raised
    import threading

    from wavetorus import pool, solver
    from wavetorus.solver import SolutionState, _seed_fields

    p = PenalizedProblem(M=8, beta=1e-4, nl=default_nl)
    ladder = list(_seed_fields(p, 8, 7))

    def fake_newton(raise_at):
        seed4_done = threading.Event()

        def newton(p, seed_u, tol, max_iter):
            i = next(i for i, s in enumerate(ladder) if np.array_equal(s.coeffs, seed_u.coeffs))
            if i == 3:
                assert seed4_done.wait(timeout=30)
            if i in raise_at:
                raise raise_at[i]
            if i == 4:
                seed4_done.set()
                seed_u = time_translate(ladder[3], 0.5)
            return SolutionState(seed_u, 0.0, float(i), 0)
        return newton

    monkeypatch.setattr(pool, "usable_cores", lambda: 2)
    monkeypatch.setattr(solver, "newton_solve", fake_newton(
        {1: NoConvergence("no convergence"), 2: SingularJacobian("zero pivot")}))
    sols = multi_seed_search(p, 8, master_seed=7)
    assert [s.I_value for s in sols] == [0.0, 3.0, 5.0, 6.0, 7.0]
    monkeypatch.setattr(solver, "newton_solve", fake_newton(
        {1: NoConvergence("no convergence"), 5: ValueError("not a Newton failure")}))
    with pytest.raises(ValueError, match="not a Newton failure"):
        multi_seed_search(p, 8, master_seed=7)


@pytest.mark.parametrize("master_seed, digest", [
    (12345, "b29700fd61e9ede77c15c572c7ab112052d876d58dd20245ede7d569d0bf6871"),
    (2718, "dc23b5032e3aed6b0b1037a72ef3ef47d7661a5d152ca46a6feae7eba524b86e"),
])
def test_seed_ladder_keeps_its_bits(default_nl, master_seed, digest):
    # the 32-seed ladder at M = 24, drawn one seed at a time, is the one the
    # eagerly built list gave: the SHA-256 of its concatenated coefficients
    import hashlib

    from wavetorus.solver import _seed_fields

    p = PenalizedProblem(M=24, beta=1e-4, nl=default_nl)
    ladder = b"".join(u.coeffs.tobytes() for u in _seed_fields(p, 32, master_seed))
    assert hashlib.sha256(ladder).hexdigest() == digest


@pytest.mark.parametrize("workers", [1, 2])
def test_multi_seed_search_draws_the_ladder_as_the_workers_pull_it(default_nl, monkeypatch,
                                                                    workers):
    # when a solve starts, at most one ladder field per worker is alive,
    # plus the one a worker still holds while it pulls its next seed; the
    # whole ladder is drawn and solved
    import weakref

    from wavetorus import pool, solver

    real = solver._seed_fields
    drawn, freed, alive = [], [], []

    def counting(p, n_seeds, master_seed):
        for u in real(p, n_seeds, master_seed):
            drawn.append(u.M)
            weakref.finalize(u, freed.append, None)
            yield u

    def newton(p, seed_u, tol, max_iter):
        alive.append(len(drawn) - len(freed))
        raise NoConvergence("stub")

    monkeypatch.setattr(solver, "_seed_fields", counting)
    monkeypatch.setattr(solver, "newton_solve", newton)
    monkeypatch.setattr(pool, "usable_cores", lambda: workers)
    p = PenalizedProblem(M=8, beta=1e-4, nl=default_nl)
    assert multi_seed_search(p, 8, master_seed=7) == []
    assert drawn == [8] * 8 and len(alive) == 8
    assert max(alive) <= workers + 1


def _pooled_call(module, probe, workers, monkeypatch, nl):
    """(call, opened): a pooled call of six items that runs ``probe()`` in
    every item, with the usable cores set to ``workers``, where ``module``'s
    OpenBLAS is the library the call pins (for scipy.linalg multi's seed
    ladder, for numpy a verify suite); and the list of the worker counts the
    pool runs on."""
    from wavetorus import pool, solver, verify
    from wavetorus.solver import SolutionState
    from wavetorus.verify import EnsembleSpec, check_box_regularity

    opened, real_map = [], pool._map

    def recording(fn, items, n):
        opened.append(n)
        return real_map(fn, items, n)

    monkeypatch.setattr(pool, "_map", recording)
    monkeypatch.setattr(pool, "usable_cores", lambda: workers)
    if module == "scipy.linalg":
        def newton(p, seed_u, tol, max_iter):
            probe()
            return SolutionState(seed_u, 0.0, 0.0, 0)

        monkeypatch.setattr(solver, "newton_solve", newton)
        p = PenalizedProblem(M=8, beta=1e-4, nl=nl)
        return lambda: multi_seed_search(p, 6, master_seed=3), opened
    real_norm_lq = verify.norm_lq

    def norm_lq(u, q):
        probe()
        return real_norm_lq(u, q)

    monkeypatch.setattr(verify, "norm_lq", norm_lq)
    return lambda: check_box_regularity(EnsembleSpec(count=6, M=8, seed=3)), opened


@pytest.mark.parametrize("module", ["scipy.linalg", "numpy"])
def test_pooled_call_runs_openblas_at_one_thread_and_restores_it(module, default_nl,
                                                                 monkeypatch):
    # every seed's Newton run sees scipy's OpenBLAS at one thread, every
    # trial of a verify suite numpy's; the count from before the call is
    # back when the call returns or a worker raises
    from wavetorus.pool import openblas_threads

    threads = openblas_threads(module)
    if threads is None:
        pytest.skip(f"{module} does not run on its wheel's bundled OpenBLAS here")
    get, set_threads = threads
    seen = []
    raising = []

    def probe():
        seen.append(get())
        if len(seen) == 3 and raising:
            raise ValueError("not a Newton failure")

    call, opened = _pooled_call(module, probe, 2, monkeypatch, default_nl)
    original = get()
    set_threads(2)
    try:
        call()
        assert seen == [1] * 6 and opened == [2]
        assert get() == 2
        raising.append(True)
        seen.clear()
        with pytest.raises(ValueError, match="not a Newton failure"):
            call()
        assert seen == [1] * len(seen) and len(seen) >= 3
        assert get() == 2
    finally:
        set_threads(original)


@pytest.mark.parametrize("module", ["scipy.linalg", "numpy"])
def test_pooled_call_runs_one_worker_without_bundled_openblas(module, default_nl,
                                                              monkeypatch):
    # another BLAS keeps its own thread count, so the call runs one worker
    from wavetorus import pool

    monkeypatch.setattr(pool, "openblas_threads", lambda name: None)
    seen = []
    call, opened = _pooled_call(module, lambda: seen.append(1), 4, monkeypatch, default_nl)
    call()
    assert opened == [1] and len(seen) == 6


def test_critical_identity_gap(default_nl):
    p0 = PenalizedProblem(M=8, beta=1e-2, nl=default_nl)
    assert critical_identity_gap(p0, SpectralField.zeros(8)) <= 1e-13
    target, p = mms_problem(default_nl, 0.5, 12, 1e-3, seed=17)
    sol = newton_solve(p, target, tol=1e-12, max_iter=10)
    gap = critical_identity_gap(p, sol.u)
    assert gap <= 1e-8 * (1.0 + abs(sol.I_value))
    # negative control: identity fails away from critical points
    rough = random_field(18, 12, SubspaceTag.ALL, 0.3)
    assert critical_identity_gap(p, rough) > 1e-3


def test_beta_schedule_validation_and_grid():
    with pytest.raises(ValueError):
        BetaSchedule(1e-1, 1.0, 1e-3)
    with pytest.raises(ValueError):
        BetaSchedule(1e-3, 0.5, 1e-1)
    sched = BetaSchedule(1e-1, 0.5, 1e-6)
    bs = sched.betas()
    assert bs[0] == 1e-1 and bs[-1] == 1e-6
    assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:]))


def test_continuation_recovers_beta_independent_target(default_nl):
    # kernel-free target plus matching forcing solves the system at every
    # penalty value, so the trace recovers it identically and the monitored
    # quantities are constant
    target, p = mms_problem(default_nl, 0.5, 12, 1e-1, seed=19, kernel_free=True)
    sched = BetaSchedule(1e-1, 0.25, 1e-4)
    trace = continuation_beta(p, sched, target, tol=1e-11, max_iter=10)
    assert len(trace.rows) == len(sched.betas())
    for row in trace.rows:
        assert (row.u - target).l2() <= 1e-9
    w2 = trace.column("w_h2")
    assert max(w2) / min(w2) <= 1.0 + 1e-9


def test_continuation_stall_carries_partial_trace(default_nl):
    target, p = mms_problem(default_nl, 0.5, 12, 1e-1, seed=20, kernel_free=True)
    sched = BetaSchedule(1e-1, 0.5, 1e-3)
    bad_seed = 5.0 * random_field(21, 12, SubspaceTag.ALL, 0.0)
    with pytest.raises(StallAt) as exc:
        continuation_beta(p, sched, bad_seed, tol=1e-12, max_iter=1)
    assert exc.value.trace is not None
    assert exc.value.beta == 1e-1


def test_monitored_quantities_kernel_cosine():
    u = SpectralField.from_modes(8, {(1, 2): 0.5})  # cos(2(x+t)), pure kernel
    q = monitored_quantities(u)
    assert q["v_c0"] == pytest.approx(1.0, rel=1e-12)
    assert q["v_t_l2"] == pytest.approx(2.0 * np.pi, rel=1e-12)
    assert q["v_tt_l2"] == pytest.approx(4.0 * np.pi, rel=1e-12)
    assert q["w_h1"] == 0.0 and q["w_h2"] == 0.0


def test_linking_report_levels(default_nl):
    p = PenalizedProblem(M=8, beta=1e-2, nl=default_nl)
    rep = linking_report(p, [2, 4], rho_values=(0.5, 1.0), n_starts=3,
                         n_sphere=16, master_seed=3)
    assert [r["l"] for r in rep["rows"]] == [2, 4]
    for r in rep["rows"]:
        assert r["max_I"] >= -1e-12  # 0 lies in the subspace and I(0) = 0
        assert set(r["sphere_inf"]) == {0.5, 1.0}
    assert rep["max_nondecreasing"] in (True, False)
    with pytest.raises(ValueError):
        linking_report(p, [10])


def test_problem_validation(default_nl):
    with pytest.raises(ValueError):
        PenalizedProblem(M=8, beta=0.0, nl=default_nl)
    with pytest.raises(ValueError):
        PenalizedProblem(M=8, beta=1e-2, nl=default_nl, sigma=2)
    f = SpectralField.zeros(6)
    with pytest.raises(ValueError):
        PenalizedProblem(M=8, beta=1e-2, nl=default_nl, forcing=f)


def test_galerkin_consistency_under_refinement(default_nl):
    # warm-restarting a manufactured solve at twice the truncation moves the
    # solution by roughly the spectral tail, which shrinks geometrically
    from dataclasses import replace

    target, p_big = mms_problem(default_nl, 0.5, 32, 1e-3, seed=3)
    changes = []
    for M in (8, 16):
        pM = replace(p_big, M=M, forcing=truncate(p_big.forcing, M))
        uM = newton_solve(pM, truncate(target, M), tol=1e-12, max_iter=20).u
        p2 = replace(p_big, M=2 * M, forcing=truncate(p_big.forcing, 2 * M))
        u2 = newton_solve(p2, embed(uM, 2 * M), tol=1e-12, max_iter=20).u
        changes.append((embed(uM, 2 * M) - u2).l2())
    assert changes[1] < 0.25 * changes[0]
