import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetorus.errors import GridTooCoarse, NotHermitian
from wavetorus.norms import quadrants
from wavetorus.spectral import (
    GridField,
    Q_AREA,
    SpectralField,
    SubspaceTag,
    analyze,
    field_from_dict,
    field_to_dict,
    lattice,
    project,
    random_field,
    read_field,
    synthesize,
    synthesize_values,
    time_translate,
    truncate,
    write_field,
)

seeds = st.integers(0, 2**31 - 1)


def sample_grid(fn, nx, nt):
    x = np.pi * np.arange(nx) / nx
    t = 2.0 * np.pi * np.arange(nt) / nt
    return GridField(fn(x[:, None], t[None, :]))


def test_mode_predicates():
    lat = lattice(12)

    def at(table, j, k):
        return table[j + lat.jmax, k + lat.M]

    assert at(lat.resonant, 0, 0) and at(lat.resonant, 3, 6) and at(lat.resonant, 2, -4)
    assert not at(lat.resonant, 1, 3) and not at(lat.resonant, 1, 0)
    assert at(lat.symbol, 1, 3) == -5
    assert at(lat.symbol, 2, 4) == 0


def test_analyze_single_mode():
    g = sample_grid(lambda x, t: np.cos(2 * x + 3 * t), 16, 16)
    u = analyze(g, 5)
    assert u.get(1, 3) == pytest.approx(0.5, abs=1e-13)
    assert u.get(-1, -3) == pytest.approx(0.5, abs=1e-13)
    other = u.l2() ** 2 - abs(u.get(1, 3)) ** 2 - abs(u.get(-1, -3)) ** 2
    assert abs(other) < 1e-13


def test_analyze_constant():
    g = GridField(np.ones((20, 20)))
    u = analyze(g, 7)
    assert u.get(0, 0) == pytest.approx(1.0, abs=1e-14)
    assert u.l2() == pytest.approx(1.0, abs=1e-13)


def test_analyze_grid_too_coarse():
    g = GridField(np.ones((10, 34)))
    with pytest.raises(GridTooCoarse):
        analyze(g, 16)
    with pytest.raises(GridTooCoarse):
        synthesize(SpectralField.zeros(16), 10, 40)


def test_round_trip_100_random_fields():
    M = 16
    worst = 0.0
    for trial in range(100):
        u = random_field((3, trial), M, SubspaceTag.ALL, 0.1)
        g = synthesize(u, 2 * M + 2, 2 * M + 2)
        err = (analyze(g, M) - u).l2() / u.l2()
        worst = max(worst, err)
    assert worst <= 1e-12


def test_synthesize_constant_and_cosine():
    u = SpectralField.from_modes(4, {(0, 0): 1.0})
    assert np.allclose(synthesize(u, 12, 12).values, 1.0, atol=1e-14)
    u2 = SpectralField.from_modes(4, {(1, 2): 0.5})
    g = synthesize(u2, 16, 16)
    ref = sample_grid(lambda x, t: np.cos(2 * x + 2 * t), 16, 16)
    assert np.allclose(g.values, ref.values, atol=1e-13)


def test_synthesize_analyze_idempotent_on_bandlimited_grids():
    u = random_field(11, 12, SubspaceTag.ALL, 0.3)
    g = synthesize(u, 40, 40)
    g2 = synthesize(analyze(g, 12), 40, 40)
    assert np.max(np.abs(g.values - g2.values)) <= 1e-12 * np.max(np.abs(g.values))


def test_project_on_resonant_mode():
    u = SpectralField.from_modes(6, {(1, 2): 0.5})
    assert (project(u, SubspaceTag.N) - u).l2() == 0.0
    assert project(u, SubspaceTag.EPERP).l2() == 0.0


def test_project_on_eplus_mode():
    u = SpectralField.from_modes(6, {(1, 3): 0.5})
    assert (project(u, SubspaceTag.EPLUS) - u).l2() == 0.0
    assert project(u, SubspaceTag.N).l2() == 0.0
    assert project(u, SubspaceTag.EMINUS).l2() == 0.0


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_projection_partition_parseval(seed):
    u = random_field(seed, 12, SubspaceTag.ALL, 0.0)
    parts = [project(u, tag) for tag in
             (SubspaceTag.N, SubspaceTag.EPLUS, SubspaceTag.EMINUS)]
    recon = parts[0] + parts[1] + parts[2]
    assert (recon - u).l2() == 0.0
    total = sum(p.l2() ** 2 for p in parts)
    assert total == pytest.approx(u.l2() ** 2, rel=1e-12)


def test_truncate_examples():
    u = SpectralField.from_modes(8, {(1, 3): 1.0})  # weight 5
    assert truncate(u, 4).l2() == 0.0
    assert truncate(u, 8) is u


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(0, 16))
def test_truncate_contracts_l2(seed, m_new):
    u = random_field(seed, 16, SubspaceTag.ALL, 0.0)
    assert truncate(u, m_new).l2() <= u.l2() + 1e-15


def test_time_translate_full_period_is_identity():
    u = random_field(4, 10, SubspaceTag.ALL, 0.2)
    v = time_translate(u, 2.0 * np.pi)
    assert (v - u).l2() <= 1e-12 * u.l2()


def test_time_translate_quarter_period():
    u = SpectralField.from_modes(2, {(0, 1): 0.5})  # cos t
    v = time_translate(u, np.pi / 2.0)
    g = synthesize(v, 8, 8)
    ref = sample_grid(lambda x, t: -np.sin(t) + 0.0 * x, 8, 8)
    assert np.allclose(g.values, ref.values, atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(seeds, st.floats(-10, 10))
def test_time_translate_isometry_and_group(seed, theta):
    u = random_field(seed, 10, SubspaceTag.ALL, 0.1)
    assert time_translate(u, theta).l2() == pytest.approx(u.l2(), rel=1e-12)
    two = time_translate(time_translate(u, theta), 0.7)
    one = time_translate(u, theta + 0.7)
    assert (two - one).l2() <= 1e-12 * u.l2()


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_kernel_reconstruction_oracle(seed):
    # a kernel field is p1(x+t) + p2(x-t), p(y) = sum_j c_j e^{2ijy}: p1 reads
    # u_hat(j, 2j) and p2 reads u_hat(j, -2j), the constant mode split in half
    M = 16
    v = random_field(seed, M, SubspaceTag.N, 0.2)
    jmax = lattice(M).jmax
    js = np.arange(-jmax, jmax + 1)
    c1 = v.coeffs[js + jmax, M + 2 * js]
    c2 = v.coeffs[js + jmax, M - 2 * js]
    c1[jmax] = c2[jmax] = v.coeffs[jmax, M] / 2.0
    n = 4 * (2 * M + 2)
    g = synthesize(v, n, n)
    x = np.pi * np.arange(n) / n
    t = 2.0 * np.pi * np.arange(n) / n
    recon = (np.exp(2j * np.add.outer(x, t)[..., None] * js) @ c1
             + np.exp(2j * np.subtract.outer(x, t)[..., None] * js) @ c2)
    assert np.max(np.abs(recon - g.values)) <= 1e-12 * max(1.0, np.max(np.abs(g.values)))


def test_random_field_deterministic():
    a = random_field(123, 12, SubspaceTag.ALL, 0.4)
    b = random_field(123, 12, SubspaceTag.ALL, 0.4)
    assert (a - b).l2() == 0.0


def test_random_field_envelope_exact():
    u = random_field(9, 10, SubspaceTag.ALL, 0.5)
    lat = lattice(10)
    mags = np.abs(u.coeffs[lat.mask])
    env = np.exp(-0.5 * lat.weight[lat.mask])
    assert np.max(np.abs(mags - env)) <= 1e-14


def whole_rectangle_random_field(seed, M, tag, decay):
    # the expression random_field evaluated over the whole rectangle, kept
    # to pin that the half-lattice evaluation gives the same bits
    from wavetorus.spectral import _tag_mask

    lat = lattice(M)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=lat.shape)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    envelope = np.exp(-decay * lat.weight)
    c = np.where(lat.half, envelope * np.exp(1j * phases), 0.0)
    c = c + np.conj(c[::-1, ::-1])
    c[lat.jmax, M] = sign * envelope[lat.jmax, M]
    return np.where(_tag_mask(M, tag), c, 0.0)


@pytest.mark.parametrize("M", [*range(25), 64])
def test_random_field_bits_equal_whole_rectangle_expression(M):
    for tag in SubspaceTag:
        for decay in (0.0, 0.5):
            for seed in (M, (M, 7)):
                ref = whole_rectangle_random_field(seed, M, tag, decay)
                assert np.array_equal(random_field(seed, M, tag, decay).coeffs, ref)


def test_random_field_flat_and_tagged():
    u = random_field(2, 8, SubspaceTag.ALL, 0.0)
    lat = lattice(8)
    assert np.allclose(np.abs(u.coeffs[lat.mask]), 1.0, atol=1e-14)
    up = random_field(2, 8, SubspaceTag.EPLUS, 0.0)
    assert project(up, SubspaceTag.EPLUS).l2() == pytest.approx(up.l2())
    assert project(up, SubspaceTag.N).l2() == 0.0
    assert up.is_hermitian()


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_parseval_quadrature(seed):
    M = 12
    u = random_field(seed, M, SubspaceTag.ALL, 0.2)
    n = 4 * (2 * M + 2)
    g = synthesize(u, n, n)
    quad = np.sum(g.values**2) * (np.pi / n) * (2 * np.pi / n) / Q_AREA
    assert quad == pytest.approx(u.l2() ** 2, rel=1e-10)


def test_field_file_round_trip(tmp_path):
    u = random_field(77, 9, SubspaceTag.ALL, 0.3)
    path = tmp_path / "field.json"
    write_field(u, path)
    v = read_field(path)
    assert (u - v).l2() <= 1e-15 * u.l2()
    doc = json.loads(path.read_text())
    assert doc["M"] == 9
    assert doc["domain"] == "x:[0,pi],t:[0,2pi]"
    assert doc["normalization"] == "unit-modes"
    for e in doc["coeffs"]:
        assert e["k"] > 0 or (e["k"] == 0 and e["j"] >= 0)


def test_field_file_rejects_non_hermitian():
    u = SpectralField.from_modes(4, {(0, 1): 1.0}, hermitian=False)
    with pytest.raises(NotHermitian):
        field_to_dict(u)


def test_field_file_rejects_bad_half_lattice():
    doc = {"M": 4, "domain": "x:[0,pi],t:[0,2pi]", "normalization": "unit-modes",
           "coeffs": [{"j": 0, "k": -1, "re": 1.0, "im": 0.0}]}
    with pytest.raises(ValueError):
        field_from_dict(doc)


@pytest.mark.parametrize("entry, part, value", [((-1, 1), "re", float("inf")),
                                                 ((0, 1), "im", float("nan"))])
def test_field_file_rejects_non_finite_entry(entry, part, value):
    coeffs = [{"j": j, "k": k, "re": 0.5, "im": 0.0} for j, k in ((0, 0), (0, 1), (-1, 1))]
    next(e for e in coeffs if (e["j"], e["k"]) == entry)[part] = value
    doc = {"M": 2, "domain": "x:[0,pi],t:[0,2pi]", "normalization": "unit-modes",
           "coeffs": coeffs}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic on the value
        with pytest.raises(ValueError, match=r"^entry \({},{}\) is not finite$".format(*entry)):
            field_from_dict(doc)


@pytest.mark.parametrize("raw, message", [
    ({"M": 8.7}, r"M must be an integer \(got 8\.7\)"),
    ({"M": "6"}, r"M must be an integer \(got '6'\)"),
    ({"j": 1.9}, r"coeffs\[1\]: j and k must be integers \(got 1\.9, 1\)"),
    ({"k": True}, r"coeffs\[1\]: j and k must be integers \(got 1, True\)"),
    ({"re": "0.5"}, r"entry \(1,1\): re must be a finite number \(got '0\.5'\)"),
    ({"im": 10**400}, r"entry \(1,1\): im must be a finite number \(got 1000"),
], ids=["M-float", "M-string", "j-float", "k-true", "re-string", "im-huge"])
def test_field_file_rejects_malformed_numbers(raw, message):
    # a config's rules, not int() or float(): no bool, string or fraction
    coeffs = [{"j": 0, "k": 0, "re": 1, "im": 0}, {"j": 1, "k": 1, "re": 0.5, "im": 0.0}]
    doc = {"M": 8, "domain": "x:[0,pi],t:[0,2pi]", "normalization": "unit-modes",
           "coeffs": coeffs}
    assert field_from_dict(doc).get(1, 1) == 0.5
    (doc if "M" in raw else coeffs[1]).update(raw)
    with pytest.raises(ValueError, match="^" + message):
        field_from_dict(doc)


def test_synthesize_rejects_complex_fields():
    u = SpectralField.from_modes(4, {(1, 1): 1.0}, hermitian=False)
    with pytest.raises(NotHermitian):
        synthesize(u, 16, 16)


def test_coeff_norm_and_arithmetic():
    u = SpectralField.from_modes(6, {(1, 3): 1.0, (0, 1): 2.0})
    v = 2.0 * u - u
    assert (v - u).l2() == 0.0
    w = truncate(u, 3)  # keeps only (0,1)
    assert (u + (-1.0) * w).get(0, 1) == 0.0


lattice_sizes = st.integers(1, 40)


@settings(max_examples=40, deadline=None)
@given(lattice_sizes, st.data())
def test_lattice_pack_unpack_round_trip_exact(M, data):
    from wavetorus.spectral import lattice, pack, unpack

    n = lattice(M).n_real
    v = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                       min_size=n, max_size=n)))
    u = unpack(v, M)
    assert np.array_equal(pack(u), v)
    assert np.array_equal(u.coeffs, np.conj(u.coeffs[::-1, ::-1]))


@settings(max_examples=40, deadline=None)
@given(lattice_sizes)
def test_lattice_counts_and_partition(M):
    from wavetorus.spectral import lattice

    lat = lattice(M)
    assert lat.n_real == lat.n_modes == int(np.sum(lat.mask))
    parts = (lat.resonant, lat.eplus, lat.eminus)
    assert np.array_equal(parts[0] | parts[1] | parts[2], lat.mask)
    assert int(sum(np.sum(m) for m in parts)) == lat.n_modes
    assert lattice(M) is lat and not lat.mask.flags.writeable


# -- the pruned real transform of the grid norms -------------------------------


def hermitian_values(u, nx, nt):
    """The row blocks of the pruned real transform, copied and stacked."""
    from wavetorus.spectral import _hermitian_values

    return np.concatenate([block.copy() for block in _hermitian_values(u, nx, nt)])


def stacked_abs(u, nx, nt):
    """|u| on the whole grid: the row blocks of ``abs_blocks``, copied and stacked."""
    from wavetorus.spectral import abs_blocks

    return np.concatenate([block.copy() for block in abs_blocks(u, nx, nt)])


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 40), st.integers(0, 9), st.integers(0, 9), seeds,
       st.floats(0.0, 0.5))
def test_pruned_real_transform_matches_complex_path(M, ex, et, seed, decay):
    from wavetorus.spectral import min_grid

    u = random_field(seed, M, SubspaceTag.ALL, decay)
    nx, nt = min_grid(M) + ex, min_grid(M) + et  # both parities, independent
    ref = synthesize_values(u, nx, nt)
    tol = 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(hermitian_values(u, nx, nt) - ref.real)) <= tol
    assert np.max(np.abs(stacked_abs(u, nx, nt) - np.abs(ref))) <= tol


@pytest.mark.parametrize("M", [48, 64, 96])
@pytest.mark.parametrize("grid", ["min_grid", "default_grid"])
@pytest.mark.parametrize("odd_x, odd_t", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_pruned_real_transform_matches_complex_path_at_large_M(M, grid, odd_x, odd_t):
    from wavetorus.spectral import default_grid, min_grid

    n = {"min_grid": min_grid, "default_grid": default_grid}[grid](M)  # even
    nx, nt = n + odd_x, n + odd_t
    u = random_field((M, nx, nt), M, SubspaceTag.ALL, 0.0)
    ref = synthesize_values(u, nx, nt)
    assert np.max(np.abs(hermitian_values(u, nx, nt) - ref.real)) <= 1e-13 * np.max(np.abs(ref))


def test_x_pass_table_is_cached_and_read_only():
    from wavetorus.spectral import _synthesis_table

    table = _synthesis_table(32, 520)
    assert _synthesis_table(32, 520) is table
    assert table.shape == (520, 66) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


def test_abs_blocks_keeps_complex_path_off_exact_symmetry():
    from wavetorus.spectral import abs_blocks

    u = random_field(7, 12, SubspaceTag.ALL, 0.1)
    c = u.coeffs.copy()
    c[7, 15] = np.nextafter(c[7, 15].real, np.inf) + 1j * c[7, 15].imag
    near = SpectralField(12, c)  # mode (1, 3): Hermitian to one ulp only
    for f in (near, *quadrants(u)):
        assert np.array_equal(stacked_abs(f, 30, 27), np.abs(synthesize_values(f, 30, 27)))
    with pytest.raises(GridTooCoarse):  # a generator: raised at the first block
        next(abs_blocks(u, 25, 40))


# -- the pruned complex transforms of the solver -------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 24), st.integers(0, 9), st.integers(0, 9), seeds,
       st.sampled_from([None, 0, 1, 2, 3]))
def test_pruned_complex_transforms_equal_fft2(M, ex, et, seed, quadrant):
    # the same 1-D passes as ifft2/fft2, so equal to them bit for bit
    u = random_field(seed, M, SubspaceTag.ALL, 0.3)  # exactly Hermitian
    if quadrant is not None:
        u = tuple(quadrants(u))[quadrant]
    lat = lattice(M)
    nx, nt = 2 * M + 2 + ex, 2 * M + 2 + et  # both parities, independent
    A = np.zeros((nx, nt), dtype=np.complex128)
    A[(lat.J % nx)[lat.mask], (lat.K % nt)[lat.mask]] = u.coeffs[lat.mask]
    assert np.array_equal(synthesize_values(u, nx, nt), np.fft.ifft2(A) * (nx * nt))
    g = np.random.default_rng(seed).standard_normal((nx, nt))
    F = np.fft.fft2(g) / (nx * nt)
    expected = np.where(lat.mask, F[lat.J % nx, lat.K % nt], 0.0)
    assert np.array_equal(analyze(GridField(g), M).coeffs, expected)
