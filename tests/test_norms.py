import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetorus.errors import NotInEperp
from wavetorus.norms import (
    _power_sum,
    block_index,
    dyadic_blocks,
    holder_estimate,
    lp_norms,
    norm_E,
    norm_Es,
    norm_Lp,
    norm_lq,
    quadrants,
    sobolev_norm,
)
from wavetorus.spectral import (
    GRID_BLOCK,
    Q_AREA,
    SpectralField,
    SubspaceTag,
    abs_blocks,
    cell_area,
    default_grid,
    grid_integral,
    grid_max_abs,
    lattice,
    random_field,
    synthesize_values,
    truncate,
)

seeds = st.integers(0, 2**31 - 1)


# -- energy norms -------------------------------------------------------------


def test_norm_E_hand_values():
    u = SpectralField.from_modes(8, {(1, 3): 0.5})  # cos(2x + 3t)
    assert norm_E(u) ** 2 == pytest.approx(5.0 * np.pi**2 / 4.0, rel=1e-13)
    const = SpectralField.from_modes(2, {(0, 0): 1.0})
    assert norm_E(const) == pytest.approx(1.0)
    res = SpectralField.from_modes(8, {(1, 2): 0.5})  # resonant cos(2x + 2t)
    assert norm_E(res) ** 2 == pytest.approx(2.0, rel=1e-13)


def test_norm_Es_hand_values():
    u = SpectralField.from_modes(8, {(1, 3): 0.5})
    assert norm_Es(u, 1.0) == pytest.approx(np.sqrt(5.0 * 0.5), rel=1e-13)
    m01 = SpectralField.from_modes(2, {(0, 1): 0.5})
    for s in (0.2, 0.7, 1.0):
        assert norm_Es(m01, s) == pytest.approx(m01.l2(), rel=1e-13)


def test_norm_Es_rejects_kernel_mass():
    v = SpectralField.from_modes(4, {(1, 2): 1.0})
    with pytest.raises(NotInEperp):
        norm_Es(v, 0.5)


@settings(max_examples=20, deadline=None)
@given(seeds, st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_norm_Es_monotone_in_s(seed, s1, s2):
    # integer off-resonant modes have |4j^2 - k^2| >= 1, so weights in s
    # are monotone for every admissible field
    s1, s2 = min(s1, s2), max(s1, s2)
    u = random_field(seed, 12, SubspaceTag.EPERP, 0.1)
    assert norm_Es(u, s1) <= norm_Es(u, s2) * (1 + 1e-12)


def test_sobolev_hand_value_and_s0():
    u = SpectralField.from_modes(2, {(0, 1): 0.5})  # cos t
    assert sobolev_norm(u, 1.0, "aniso") == pytest.approx(np.sqrt(0.5), rel=1e-13)
    w = random_field(5, 10, SubspaceTag.ALL, 0.2)
    for conv in ("aniso", "ell1"):
        assert sobolev_norm(w, 0.0, conv) == pytest.approx(w.l2(), rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_sobolev_convention_equivalence(seed):
    # per-mode: 4j^2 + k^2 <= (2|j| + |k|)^2 <= 2 (4j^2 + k^2)
    lat = lattice(16)
    aniso = (4 * lat.J**2 + lat.K**2)[lat.mask & (lat.weight > 0)]
    ell1 = (lat.weight**2)[lat.mask & (lat.weight > 0)]
    assert np.all(aniso <= ell1) and np.all(ell1 <= 2 * aniso)
    u = random_field(seed, 16, SubspaceTag.ALL, 0.1)
    ratio = sobolev_norm(u, 1.0, "aniso") / sobolev_norm(u, 1.0, "ell1")
    assert 0.5 <= ratio <= 2.0


# -- integral and sequence norms ----------------------------------------------


def test_norm_Lp_constant():
    c = SpectralField.from_modes(2, {(0, 0): -2.0})
    for p in (1.0, 2.0, 3.5):
        assert norm_Lp(c, p) == pytest.approx(2.0 * Q_AREA ** (1.0 / p), rel=1e-12)


def test_norm_Lp_cosine_symbolic_oracle():
    # int_Q cos^2 t = pi * pi  (symbolic:  int_0^pi dx * int_0^2pi cos^2 t dt)
    u = SpectralField.from_modes(2, {(0, 1): 0.5})
    assert norm_Lp(u, 2.0) == pytest.approx(np.pi, rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_norm_Lp_parseval_at_p2(seed):
    u = random_field(seed, 12, SubspaceTag.ALL, 0.3)
    assert norm_Lp(u, 2.0) == pytest.approx(np.sqrt(Q_AREA) * u.l2(), rel=1e-10)


def test_norm_lq_examples():
    one = SpectralField.from_modes(4, {(1, 1): 1.0}, hermitian=False)
    for q in (1.0, 2.0, 7.0):
        assert norm_lq(one, q) == pytest.approx(1.0)
    two = SpectralField.from_modes(4, {(1, 1): 1.0, (0, 1): 1.0}, hermitian=False)
    assert norm_lq(two, 1.0) == pytest.approx(2.0)
    assert norm_lq(two, 2.0) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_norm_lq_rescales_a_sum_that_underflows_exactly(seed):
    # |u_hat|^21 of a field scaled by 2^-700 underflows to 0; the sum is
    # taken of the coefficients scaled by the power of two of the largest,
    # which here (largest in [1/2, 1)) undoes the 2^-700 exactly
    u = random_field(seed, 10, SubspaceTag.EPERP, 0.3)
    assert 0.5 <= np.max(np.abs(u.coeffs)) < 1.0
    small = SpectralField(u.M, u.coeffs * 2.0**-700)
    assert norm_lq(small, 21.0) == 2.0**-700 * norm_lq(u, 21.0) > 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lp_norms_rescale_a_sum_that_underflows_exactly(seed):
    # |u|^40 and |u|^4 of a field scaled by 2^-700 underflow to 0 on the
    # grid; lp_norms sums again over the field scaled by the power of two of
    # its largest coefficient (norm_lq's rule), which here undoes the 2^-700
    u = random_field(seed, 10, SubspaceTag.EPERP, 0.3)
    assert 0.5 <= np.max(np.abs(u.coeffs)) < 1.0
    small = SpectralField(u.M, u.coeffs * 2.0**-700)
    got = lp_norms(small, [40, 4])
    assert got == [2.0**-700 * x for x in lp_norms(u, [40, 4])]
    assert min(got) > 0.0


def test_lp_norms_of_the_zero_field_are_zero():
    assert lp_norms(SpectralField.zeros(6), [2, 40]) == [0.0, 0.0]


@settings(max_examples=20, deadline=None)
@given(seeds, st.floats(1.0, 4.0), st.floats(1.0, 4.0))
def test_norm_lq_monotone(seed, q1, q2):
    q1, q2 = min(q1, q2), max(q1, q2)
    u = random_field(seed, 10, SubspaceTag.ALL, 0.3)
    assert norm_lq(u, q2) <= norm_lq(u, q1) * (1 + 1e-12)


# -- dyadic blocks and the Holder proxy ----------------------------------------


def test_block_index_membership():
    assert block_index(0) == 0 and block_index(2) == 0
    assert block_index(3) == 1 and block_index(4) == 1
    assert block_index(5) == 2 and block_index(8) == 2 and block_index(9) == 3


def test_dyadic_blocks_examples():
    u = SpectralField.from_modes(4, {(1, 0): 0.5})  # cos 2x, weight 2
    blocks = dict(dyadic_blocks(u))
    assert (blocks[0] - u).l2() == 0.0
    v = SpectralField.from_modes(4, {(0, 3): 0.5})  # cos 3t, weight 3
    blocks = dict(dyadic_blocks(v))
    assert list(blocks) == [0, 1]
    assert (blocks[1] - v).l2() == 0.0
    assert blocks[0].l2() == 0.0


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_dyadic_partition_exact(seed):
    u = random_field(seed, 20, SubspaceTag.ALL, 0.0)
    blocks = dyadic_blocks(u)
    total = sum((f for _, f in blocks[1:]), blocks[0][1])
    assert (total - u).l2() == 0.0
    supports = [np.abs(f.coeffs) > 0 for _, f in blocks]
    overlap = sum(s.astype(int) for s in supports)
    assert np.max(overlap) <= 1


def test_holder_estimate_single_blocks():
    v = SpectralField.from_modes(4, {(0, 3): 0.5})  # block 1
    assert holder_estimate(v, 0.5) == pytest.approx(np.sqrt(2.0), rel=1e-12)
    w = SpectralField.from_modes(4, {(1, 0): 0.5})  # block 0
    for gamma in (0.1, 0.5, 0.9):
        assert holder_estimate(w, gamma) == pytest.approx(1.0, rel=1e-12)


def test_holder_estimate_lacunary():
    gamma = 0.5
    modes = {}
    for m in range(1, 6):
        k = 3 * 2 ** (m - 1)
        modes[(0, k)] = 2.0 ** (-gamma * m) / 2.0
    u = SpectralField.from_modes(48, modes)
    assert holder_estimate(u, gamma) == pytest.approx(1.0, rel=0.01)


def test_holder_homogeneity_exact_for_pow2_scalars():
    u = random_field(31, 16, SubspaceTag.ALL, 0.2)
    for gamma in (0.3, 0.7):
        base = holder_estimate(u, gamma)
        for c in (2.0, 0.5, -4.0):
            assert holder_estimate(c * u, gamma) == abs(c) * base


@settings(max_examples=15, deadline=None)
@given(seeds, st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_holder_monotone_in_gamma(seed, g1, g2):
    g1, g2 = min(g1, g2), max(g1, g2)
    u = random_field(seed, 12, SubspaceTag.ALL, 0.1)
    assert holder_estimate(u, g1) <= holder_estimate(u, g2) + 1e-15


# -- quadrants -----------------------------------------------------------------


def test_quadrants_keep_a_complex_exponential_in_its_own_quadrant():
    u = SpectralField.from_modes(4, {(1, 1): 1.0}, hermitian=False)  # e^{i(2x+t)}
    pp, pm, mp, mm = tuple(quadrants(u))
    assert (pp - u).l2() == 0.0
    assert pm.l2() == 0.0 and mp.l2() == 0.0 and mm.l2() == 0.0


def test_quadrants_split_a_real_cosine_into_opposite_quadrants():
    u = SpectralField.from_modes(4, {(1, 1): 0.5})  # cos(2x + t)
    pp, pm, mp, mm = tuple(quadrants(u))
    assert pp.get(1, 1) == pytest.approx(0.5)
    assert mm.get(-1, -1) == pytest.approx(0.5)
    assert pm.l2() == 0.0 and mp.l2() == 0.0


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_quadrant_parseval_exact(seed):
    u = random_field(seed, 14, SubspaceTag.ALL, 0.0)
    quads = tuple(quadrants(u))
    assert (quads[0] + quads[1] + quads[2] + quads[3] - u).l2() == 0.0
    assert sum(q.l2() ** 2 for q in quads) == pytest.approx(u.l2() ** 2, rel=1e-14)


# -- grid norms on the pruned real path ---------------------------------------


def complex_path_holder(u, gamma, oversample=4):
    """holder_estimate with every block sup taken on the complex transform."""
    best = 0.0
    for m, f in dyadic_blocks(u):
        if not np.any(f.coeffs):
            continue
        Mb = min(2 * 2**m, u.M)
        n = default_grid(Mb, oversample)
        sup = float(np.max(np.abs(synthesize_values(truncate(f, Mb), n, n))))
        best = max(best, 2.0 ** (gamma * m) * sup)
    return best


@settings(max_examples=15, deadline=None)
@given(seeds, st.integers(1, 16), st.floats(1.0, 6.0), st.floats(0.05, 0.95))
def test_grid_norms_of_non_hermitian_fields_keep_complex_path(seed, M, p, gamma):
    u = random_field(seed, M, SubspaceTag.ALL, 0.1)
    n = default_grid(M)
    for q in quadrants(u):
        vals = np.abs(synthesize_values(q, n, n))
        assert norm_Lp(q, p) == (_power_sum(vals, p) * cell_area(n, n)) ** (1.0 / p)
        assert holder_estimate(q, gamma) == complex_path_holder(q, gamma)


@settings(max_examples=15, deadline=None)
@given(seeds, st.integers(1, 24), st.floats(0.0, 0.3), st.floats(0.05, 0.95))
def test_holder_homogeneity_exact_on_real_path(seed, M, decay, gamma):
    u = random_field(seed, M, SubspaceTag.ALL, decay)
    base = holder_estimate(u, gamma)
    for c in (2.0, 0.5, -4.0):
        cu = c * u
        assert np.array_equal(cu.coeffs, np.conj(cu.coeffs[::-1, ::-1]))
        assert holder_estimate(cu, gamma) == abs(c) * base


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(0, 24), st.lists(st.floats(1.0, 6.0), min_size=1, max_size=4))
def test_lp_norms_equal_per_exponent_norm_Lp(seed, M, ps):
    # one grid for all exponents gives exactly the one-exponent values, on the
    # real path (exactly Hermitian u) and on the complex one (quadrant pieces)
    u = random_field(seed, M, SubspaceTag.ALL, 0.1)
    assert np.array_equal(u.coeffs, np.conj(u.coeffs[::-1, ::-1]))
    for f in (u, *quadrants(u)):
        assert lp_norms(f, ps) == [norm_Lp(f, p) for p in ps]


def test_lp_norms_reject_any_exponent_below_one():
    u = random_field(1, 6, SubspaceTag.ALL, 0.1)
    for ps in ((0.5,), (2.0, 0.999), (1.0, 3.0, 0.0)):
        with pytest.raises(ValueError):
            lp_norms(u, ps)


# exponents whose block sums are dot products in _power_sum; the rest sum a**p
DOT_EXPONENTS = (4.0 / 3.0, 1.5, 2.0, 3, 4.0)


@pytest.mark.parametrize("M", [6, 16, 64])
def test_lp_norms_products_agree_with_pow(M):
    # the dot-product exponents equal a**p to rounding; the rest is a**p,
    # summed over the same row blocks in the same order
    u = random_field(3, M, SubspaceTag.ALL, 0.1)
    n = default_grid(M)
    ps = (*DOT_EXPONENTS, 1.0, 2.5, 3.5, 6.0, 1.25)
    sums = [0.0] * len(ps)
    for a in abs_blocks(u, n, n):
        for i, p in enumerate(ps):
            sums[i] += float(np.sum(a**p))
    for p, s, got in zip(ps, sums, lp_norms(u, ps)):
        ref = (s * cell_area(n, n)) ** (1.0 / p)
        if p in DOT_EXPONENTS:
            assert abs(got - ref) <= 1e-14 * ref
        else:
            assert got == ref


@pytest.mark.parametrize("M, nx, nt", [
    (0, 2, 2), (0, 3, GRID_BLOCK + 1),  # one row per block
    (3, 9, 8), (5, 13, 17),  # the whole grid in one block
    (24, 200, 201), (24, 201, 200), (33, 271, 269),
    (64, 520, 520), (64, 521, 519),  # 63 rows per block; 520 is not a multiple
    (96, 777, 776),
])
def test_abs_blocks_stack_to_the_complex_path(M, nx, nt):
    u = random_field((M, nx, nt), M, SubspaceTag.ALL, 0.0)
    ref = np.abs(synthesize_values(u, nx, nt))
    rows = max(1, GRID_BLOCK // nt)
    blocks = [a.copy() for a in abs_blocks(u, nx, nt)]
    assert [len(a) for a in blocks[:-1]] == [rows] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= rows
    assert np.max(np.abs(np.concatenate(blocks) - ref)) <= 1e-13 * np.max(ref)


@pytest.mark.parametrize("M", [0, 1, 2, 3, 7, 8, 12, 24, 33, 48, 64, 96])
@pytest.mark.parametrize("oversample", [1, 4])
def test_blocked_grid_norms_match_full_grid_reference(M, oversample):
    # lp_norms, grid_max_abs and holder_estimate against one full |u| grid
    u = random_field((M, oversample), M, SubspaceTag.ALL, 0.05)
    n = default_grid(M, oversample)
    a = np.abs(synthesize_values(u, n, n))
    ps = (1.0, 4.0 / 3.0, 1.5, 2.0, 3.0, 4.0, 5.5)
    for p, got in zip(ps, lp_norms(u, ps, oversample)):
        ref = grid_integral(a**p) ** (1.0 / p)
        assert abs(got - ref) <= 1e-13 * ref
    assert abs(grid_max_abs(u, oversample) - np.max(a)) <= 1e-13 * np.max(a)
    for gamma in (0.3, 0.7):
        ref = complex_path_holder(u, gamma, oversample)
        assert abs(holder_estimate(u, gamma, oversample) - ref) <= 1e-13 * ref


def test_lp_norms_never_hold_a_full_grid():
    import tracemalloc

    u = random_field(5, 64, SubspaceTag.ALL, 0.0)
    n = default_grid(64)
    tracemalloc.start()
    try:
        lp_norms(u, (4.0 / 3.0, 1.5, 2.0, 3.0, 4.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # one 520 x 520 float64 grid, 2.16 MB


def blocks_at_once_holder(u, gamma, oversample=4):
    """holder_estimate as the max over the whole ``dyadic_blocks(u)`` tuple,
    each full-size block truncated to its own diamond afterwards."""
    best = 0.0
    for m, f in dyadic_blocks(u):
        if not np.any(f.coeffs):
            continue
        Mb = min(2 * 2**m, u.M)
        best = max(best, 2.0 ** (gamma * m) * grid_max_abs(truncate(f, Mb), oversample))
    return best


@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(0, 40), st.sampled_from([SubspaceTag.ALL, SubspaceTag.EPERP]),
       st.floats(0.01, 0.99))
def test_holder_blocks_on_their_own_truncation_equal_the_held_ones(seed, M, tag, gamma):
    # blocks built on their own truncation give the sup of the truncated
    # full-size blocks bit for bit
    u = random_field(seed, M, tag, 0.05)
    assert holder_estimate(u, gamma) == blocks_at_once_holder(u, gamma)


def _warm_peak_mb(call):
    """tracemalloc peak of ``call()`` in MB, after one untraced warm-up call
    has built the cached lattices and synthesis tables."""
    import tracemalloc

    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# Held all blocks at once, holder_estimate peaked at 1.62 and 3.58 MB (M = 64,
# 96); built on their own truncations, one at a time, at 0.69 and 1.52 MB.
# Keeping the complex t-pass array through the x pass raised one M = 64
# abs_blocks pass from 0.55 to 0.81 MB.
@pytest.mark.parametrize("M, bound_mb", [(64, 1.1), (96, 2.5)])
def test_holder_estimate_holds_one_block_at_a_time(M, bound_mb):
    u = random_field(5, M, SubspaceTag.ALL, 0.0)
    assert _warm_peak_mb(lambda: holder_estimate(u, 0.5)) < bound_mb


def test_abs_blocks_frees_the_t_pass_before_the_x_pass():
    u = random_field(5, 64, SubspaceTag.ALL, 0.0)
    n = default_grid(64)
    assert _warm_peak_mb(lambda: [None for _ in abs_blocks(u, n, n)]) < 0.68


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), -float("inf")])
def test_exponents_must_be_finite(bad):
    u = random_field(1, 6, SubspaceTag.ALL, 0.1)
    for call in (lambda: lp_norms(u, (2.0, bad)), lambda: norm_Lp(u, bad),
                 lambda: norm_lq(u, bad)):
        with pytest.raises(ValueError, match="finite"):
            call()
