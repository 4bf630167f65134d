import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from wavetorus import (
    BetaSchedule,
    NoConvergence,
    Nonlinearity,
    PenalizedProblem,
    SingularJacobian,
    SpectralField,
    StallAt,
    SubspaceTag,
    TrigPolynomial,
    apply_box,
    continuation_beta,
    critical_identity_gap,
    functional_I,
    max_time_correlation,
    mms_problem,
    monitored_quantities,
    multi_seed_search,
    newton_solve,
    pair,
    project,
    random_field,
    residual,
    time_derivative,
    time_translate,
)
from wavetorus.solver import (
    _dense_jacobian,
    _f_hat,
    _grid_side,
    _linear_solver,
    dedup_solutions,
    linking_report,
    pack,
    penalized_symbol,
    unpack,
)
from wavetorus.spectral import lattice

seeds = st.integers(0, 2**31 - 1)


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
        from wavetorus import synthesize

        if order == 0:
            return synthesize(self.g_field, u.shape[0], u.shape[1]).values
        return np.zeros_like(u)

    def potential_values(self, x, u):
        from wavetorus import synthesize

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
    J = _dense_jacobian(p, u)()
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
        J = _dense_jacobian(p, u)()
        assert np.array_equal(J, complex_jacobian_oracle(p, u)), M
        n = J.shape[0]
        bordered = _dense_jacobian(p, u)(np.full((n + 1, n + 1), np.nan, order="F"))
        assert np.array_equal(bordered[:n, :n], J), M


def test_forced_jacobian_bit_identical_to_complex_construction(default_nl):
    _, p = mms_problem(default_nl, 0.5, 12, 1e-3, seed=5)
    u = random_field(61, 12, SubspaceTag.ALL, 0.4)
    assert np.array_equal(_dense_jacobian(p, u)(), complex_jacobian_oracle(p, u))


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
    J = _dense_jacobian(p, u)()
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
    from wavetorus import embed, truncate

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
    import wavetorus.solver as solver

    target, p = mms_problem(default_nl, 0.5, 10, 1e-3, seed=9)
    from wavetorus import embed, truncate

    cold = embed(truncate(target, 6), 10)
    dense = newton_solve(p, cold, tol=1e-11, max_iter=20)
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    iterative = newton_solve(p, cold, tol=1e-11, max_iter=25)
    assert (dense.u - iterative.u).l2() <= 1e-8


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
    import wavetorus.solver as solver

    p = PenalizedProblem(M=M, beta=1e-3, nl=default_nl)
    u = 0.5 * random_field((M, 31), M, SubspaceTag.ALL, 0.5)
    anchor = None
    if anchored:
        t_vec = pack(time_derivative(u))
        anchor = t_vec / np.linalg.norm(t_vec)
    rhs = -pack(residual(p, u))
    solve_dense, levenberg_dense = _linear_solver(p, u, anchor)
    monkeypatch.setattr(solver, "DENSE_LIMIT", 0)
    solve_krylov, levenberg_krylov = _linear_solver(p, u, anchor)
    assert levenberg_dense is not None and levenberg_krylov is None
    dense, krylov = solve_dense(rhs), solve_krylov(rhs)
    assert dense.shape == krylov.shape == rhs.shape
    assert np.linalg.norm(krylov - dense) <= 1e-8 * np.linalg.norm(dense)
    if anchored:  # the phase condition holds to each solver's own accuracy
        assert abs(anchor @ dense) <= 1e-13 * np.linalg.norm(dense)
        assert abs(anchor @ krylov) <= 1e-8 * np.linalg.norm(krylov)


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
        def spy(p, u, anchor=None, work=None):
            solve, levenberg = linear_solver(p, u, anchor, None if fresh else work)
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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
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
        return lambda p, u: fill

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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
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
        return lambda p, u: fill

    for entry in ((0, 0), (3, 1), (n - 1, n - 1)):
        monkeypatch.setattr(solver, "_dense_jacobian", identity_with(entry))
        with pytest.raises(SingularJacobian, match="non-finite"):
            _linear_solver(p, u, anchor)
    monkeypatch.setattr(solver, "_dense_jacobian", identity_with())
    solve, levenberg = _linear_solver(p, u, anchor)
    with pytest.raises(SingularJacobian, match="non-finite"):
        levenberg(bad)


def test_levenberg_ladder_skips_singular_mu(default_nl, monkeypatch):
    # a ladder step whose system is singular goes on with the next mu
    import wavetorus.solver as solver

    p, seed_u = _ladder_case(default_nl)
    linear_solver = solver._linear_solver
    mus = []

    def spy(p, u, anchor=None, work=None):
        solve, levenberg = linear_solver(p, u, anchor, work)

        def singular_first(mu):
            mus.append(mu)
            if mu == 1e-4:
                raise SingularJacobian("zero pivot")
            return levenberg(mu)

        return solve, singular_first

    monkeypatch.setattr(solver, "_linear_solver", spy)
    with pytest.raises(NoConvergence):
        newton_solve(p, seed_u, max_iter=30)
    assert mus[:2] == [1e-4, 1e-2], mus


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
    from wavetorus.solver import _phase_table

    u1 = random_field(s1, M, SubspaceTag.ALL, decay)
    u2 = time_translate(u1, 1.0 + 2.0 * mix) + mix * random_field(s2, M, SubspaceTag.ALL, decay)
    c, theta = max_time_correlation(u1, u2)
    norms = u1.l2() * u2.l2()
    ck = np.sum(u1.coeffs * np.conj(u2.coeffs), axis=0)
    assert c >= np.max(np.real(_phase_table(M)[1] @ ck) / norms)
    ck, ks = ck / norms, np.arange(-M, M + 1)
    assert 0.0 <= theta < 2.0 * np.pi
    slope = np.real(1j * ks * ck) @ np.cos(ks * theta) - np.imag(1j * ks * ck) @ np.sin(ks * theta)
    assert abs(slope) <= 1e-9 * max(np.sum(np.abs(ks * ck)), 1e-300)


def test_dedup_merges_translates(default_nl):
    from wavetorus.solver import SolutionState

    u = random_field(15, 10, SubspaceTag.ALL, 0.3)
    s1 = SolutionState(u, 0.0, 1.0, 0)
    s2 = SolutionState(time_translate(u, 0.7), 0.0, 1.0, 0)
    s3 = SolutionState(random_field(16, 10, SubspaceTag.ALL, 0.3), 0.0, 2.0, 0)
    kept = dedup_solutions([s1, s2, s3], 0.99)
    assert len(kept) == 2


def test_multi_seed_zero_problem(default_nl):
    p = PenalizedProblem(M=8, beta=1e-2, nl=default_nl)
    sols = multi_seed_search(p, 1, master_seed=1)
    assert len(sols) == 1
    assert sols[0].u.l2() == 0.0


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
    from wavetorus import embed, mms_problem, truncate
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
