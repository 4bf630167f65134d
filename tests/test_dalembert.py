import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetorus.dalembert import apply_box, h1_bound_ratio, solve_box
from wavetorus.errors import NotInEperp
from wavetorus.norms import OFF_KERNEL_TOL, norm_Es
from wavetorus.spectral import SpectralField, SubspaceTag, project, random_field

seeds = st.integers(0, 2**31 - 1)


def test_apply_box_single_modes():
    u = SpectralField.from_modes(8, {(1, 3): 0.5})
    assert (apply_box(u) - (-5.0) * u).l2() <= 1e-14
    res = SpectralField.from_modes(8, {(1, 2): 0.5})
    assert apply_box(res).l2() == 0.0
    const = SpectralField.from_modes(2, {(0, 0): 3.0})
    assert apply_box(const).l2() == 0.0


def test_solve_box_single_modes():
    f = SpectralField.from_modes(8, {(1, 3): 0.5})
    w = solve_box(f).w
    assert (w - (-0.2) * f).l2() <= 1e-14  # 4 - 9 = -5
    f2 = SpectralField.from_modes(4, {(0, 2): 0.5})
    w2 = solve_box(f2).w
    assert (w2 - (-0.25) * f2).l2() <= 1e-14  # 0 - 4 = -4


def test_solve_box_rejects_resonant_mass():
    f = SpectralField.from_modes(8, {(1, 2): 1.0})
    with pytest.raises(NotInEperp):
        solve_box(f)


def test_solve_box_reports_dropped_mass():
    f = SpectralField.from_modes(8, {(1, 3): 1.0})
    tiny = SpectralField.from_modes(8, {(1, 2): 1e-13})
    out = solve_box(f + tiny)
    assert out.dropped_resonant_mass == pytest.approx(np.sqrt(2) * 1e-13, rel=1e-6)
    assert project(out.w, SubspaceTag.N).l2() == 0.0


def _with_kernel_mass(rel):
    """A field off the kernel plus kernel mass ``rel`` of its l2 norm."""
    f = SpectralField.from_modes(8, {(1, 3): 1.0})
    return f + SpectralField.from_modes(8, {(1, 2): rel})


@pytest.mark.parametrize("check", [solve_box, h1_bound_ratio, lambda f: norm_Es(f, 0.5)],
                         ids=["solve_box", "h1_bound_ratio", "norm_Es"])
def test_one_off_kernel_tolerance(check):
    # solve_box, h1_bound_ratio (through solve_box) and norm_Es take one test:
    # a relative kernel mass of 1.4e-13 passes, one above OFF_KERNEL_TOL raises
    assert OFF_KERNEL_TOL == 1e-12
    check(_with_kernel_mass(1.4e-13))
    with pytest.raises(NotInEperp, match="relative kernel mass"):
        check(_with_kernel_mass(2 * OFF_KERNEL_TOL))


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_box_round_trip(seed):
    f = random_field(seed, 24, SubspaceTag.EPERP, 0.0)
    w = solve_box(f).w
    err = (apply_box(w) - project(f, SubspaceTag.EPERP)).l2() / f.l2()
    assert err <= 1e-12


def test_h1_ratio_hand_values():
    f = SpectralField.from_modes(2, {(0, 1): 0.5})  # cos t: equality witness
    assert h1_bound_ratio(f) == pytest.approx(1.0, abs=1e-13)
    g = SpectralField.from_modes(4, {(1, 0): 0.5})  # cos 2x: (4+0)/16 = 1/4
    assert h1_bound_ratio(g) == pytest.approx(0.5, abs=1e-13)


def test_h1_ratio_rejects_kernel_input():
    v = SpectralField.from_modes(4, {(1, 2): 1.0})
    with pytest.raises(NotInEperp):
        h1_bound_ratio(v)


def test_h1_weight_bound_exhaustive_per_mode():
    # (4j^2 + k^2) <= (4j^2 - k^2)^2 for every nonresonant integer mode
    rng = 200
    j, k = np.meshgrid(np.arange(-rng, rng + 1), np.arange(-rng, rng + 1),
                       indexing="ij")
    sym = 4 * j * j - k * k
    nonres = sym != 0
    lhs = (4 * j * j + k * k)[nonres].astype(np.int64)
    rhs = (sym[nonres].astype(np.int64)) ** 2
    assert np.all(lhs <= rhs)
    # equality exactly at (0, +-1)
    eq = np.argwhere((4 * j * j + k * k) == sym**2)
    pairs = {(int(j[a, b]), int(k[a, b])) for a, b in eq if (j[a, b], k[a, b]) != (0, 0)}
    assert pairs == {(0, 1), (0, -1)}


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_h1_ratio_never_exceeds_one(seed):
    f = random_field(seed, 20, SubspaceTag.EPERP, 0.0)
    assert h1_bound_ratio(f) <= 1.0 + 1e-12
