import numpy as np
import pytest

from wavetorus.errors import NonlinearityRejected, OrderUnavailable
from wavetorus.nonlinearity import (
    Nonlinearity,
    TanhPart,
    TrigPolynomial,
    grid_profiles,
    make_nonlinearity,
    nonlinearity_from_config,
)

A_TERMS = [{"j": 0, "c": 1.0}, {"j": 1, "c_sin": 0.5}]


def zero_grid(n):
    """The grid's x_a = a pi / n and zero samples on the n x n grid."""
    return np.pi * np.arange(n) / n, np.zeros((n, n))


def test_default_family_certificate():
    nl = make_nonlinearity(3, A_TERMS, {"kind": "tanh", "alpha": 1.0})
    c = nl.certificate
    assert c.c01 == pytest.approx(0.5, abs=1e-9)
    assert c.c02 == pytest.approx(1.5, abs=1e-9)
    # side condition: min a > max a / (s + 1)
    assert c.c01 > c.c02 / 4.0
    assert c.c11 == pytest.approx(-1.0, abs=1e-9)
    assert c.c21 == pytest.approx(1.0, abs=1e-9)
    assert c.alpha_eff > 0.0
    assert c.a1 > 0.0 and c.a2 >= 0.0


def test_reject_no_monotone_floor():
    with pytest.raises(NonlinearityRejected) as exc:
        make_nonlinearity(3, 1.0, None)
    assert exc.value.reason == "NoMonotoneFloor"


def test_reject_nonpositive_leading():
    with pytest.raises(NonlinearityRejected) as exc:
        make_nonlinearity(3, [{"j": 0, "c": 1.0}, {"j": 1, "c_sin": 2.0}],
                          {"kind": "tanh", "alpha": 1.0})
    assert exc.value.reason == "NonpositiveLeading"


def test_reject_ratio_condition():
    with pytest.raises(NonlinearityRejected) as exc:
        make_nonlinearity(3, [{"j": 0, "c": 1.0}, {"j": 1, "c_sin": 0.9}],
                          {"kind": "tanh", "alpha": 1.0})
    assert exc.value.reason == "RatioCondition"


def test_reject_smoothness_exponent():
    with pytest.raises(NonlinearityRejected) as exc:
        make_nonlinearity(2.5, 1.0, {"kind": "tanh", "alpha": 1.0})
    assert exc.value.reason == "SmoothnessExponent"


def test_eval_at_zero(default_nl):
    x, u = zero_grid(8)
    assert np.allclose(default_nl.values(x, u, 0), 0.0)
    assert np.allclose(default_nl.values(x, u, 1), 1.0)  # m'(0) = alpha


def test_eval_order_validation(default_nl):
    x, u = zero_grid(4)
    with pytest.raises(OrderUnavailable):
        default_nl.values(x, u, 4)


def test_third_derivative_symmetric_value_at_zero():
    # |u|^{s-1} u at s = 3 has third derivative 6 a(x) everywhere; the
    # even-continuation formula returns exactly that at u = 0
    nl = make_nonlinearity(3, 2.0, {"kind": "tanh", "alpha": 1.0})
    x, u = zero_grid(4)
    vals = nl.values(x, u, 3)
    m3 = nl.m(0.0, 3)
    assert np.allclose(vals, 6.0 * 2.0 + m3)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_derivative_orders_by_finite_differences(default_nl, order):
    rng = np.random.default_rng(7)
    nx, nt = 16, 16
    x = np.pi * np.arange(nx) / nx
    u = 2.0 * rng.standard_normal((nx, nt))
    h = 1e-5
    lo = default_nl.values(x, u - h, order - 1)
    hi = default_nl.values(x, u + h, order - 1)
    fd = (hi - lo) / (2.0 * h)
    exact = default_nl.values(x, u, order)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(fd - exact)) <= 1e-6 * max(scale, 1.0)


def test_potential_convention_and_derivative(default_nl):
    x, z = zero_grid(6)
    assert np.allclose(default_nl.potential_values(x, z), 0.0)
    rng = np.random.default_rng(3)
    x = np.pi * np.arange(12) / 12
    u = 1.5 * rng.standard_normal((12, 12))
    h = 1e-5
    fd = (default_nl.potential_values(x, u + h)
          - default_nl.potential_values(x, u - h)) / (2.0 * h)
    f = default_nl.values(x, u, 0)
    assert np.max(np.abs(fd - f)) <= 1e-6 * max(np.max(np.abs(f)), 1.0)


def test_pure_power_potential_without_floor():
    # deliberately built without validation: F = u^4 / 4 at s = 3, a = 1, m = none
    nl = Nonlinearity(s=3.0, a=TrigPolynomial.constant(1.0), m=None,
                      b=TrigPolynomial.constant(0.0))
    x = np.pi * np.arange(8) / 8
    u = np.linspace(-2, 2, 8)[None, :] * np.ones((8, 1))
    assert np.allclose(nl.potential_values(x, u), u**4 / 4.0, atol=1e-14)
    assert np.allclose(nl.values(x, u, 0), u**3, atol=1e-14)


def test_growth_envelope_sampled():
    # orientation-safe two-sided envelope with g = |u|^{s-1} u:
    # min(c01 g, c02 g) + c11 <= f <= max(c01 g, c02 g) + c21
    nl = make_nonlinearity(3, A_TERMS, {"kind": "tanh", "alpha": 1.0})
    c = nl.certificate
    rng = np.random.default_rng(11)
    x = rng.uniform(0, np.pi, 10_000)
    u = np.concatenate([rng.uniform(-1e3, 1e3, 5000),
                        rng.uniform(-2.0, 2.0, 5000)])
    f = nl.values(x, u, 0)
    g = np.abs(u) ** 2 * u
    lo = np.minimum(c.c01 * g, c.c02 * g) + c.c11
    hi = np.maximum(c.c01 * g, c.c02 * g) + c.c21
    slack = 1e-9 * (1.0 + np.abs(g))
    assert np.all(f >= lo - slack)
    assert np.all(f <= hi + slack)


def test_monotonicity_floor_sampled():
    nl = make_nonlinearity(3, A_TERMS, {"kind": "tanh", "alpha": 1.0})
    rng = np.random.default_rng(12)
    x = rng.uniform(0, np.pi, 10_000)
    u = np.concatenate([rng.uniform(-1e3, 1e3, 5000),
                        rng.uniform(-3.0, 3.0, 5000)])
    fu = nl.values(x, u, 1)
    assert np.min(fu) >= nl.certificate.alpha_eff - 1e-12


def test_coercivity_identity_sampled():
    # u f / 2 - F >= a1 |u|^{s+1} - a2 with the certified constants
    nl = make_nonlinearity(3, A_TERMS, {"kind": "tanh", "alpha": 1.0})
    c = nl.certificate
    rng = np.random.default_rng(13)
    x = rng.uniform(0, np.pi, 10_000)
    u = np.concatenate([rng.uniform(-1e3, 1e3, 5000),
                        rng.uniform(-2.0, 2.0, 5000)])
    lhs = 0.5 * u * nl.values(x, u, 0) - nl.potential_values(x, u)
    rhs = c.a1 * np.abs(u) ** 4 - c.a2
    assert np.all(lhs >= rhs - 1e-7 * (1.0 + np.abs(u) ** 4))


def test_tanh_part_is_bounded_and_odd():
    m = TanhPart(alpha=2.0, bound=0.5)
    u = np.linspace(-50, 50, 1001)
    assert np.max(np.abs(m(u))) <= 0.5 + 1e-12
    assert np.allclose(m(-u), -m(u))
    assert m(0.0, 1) == pytest.approx(2.0)
    assert m.antiderivative(0.0) == 0.0
    assert np.all(m.antiderivative(u) >= 0.0)


def test_overflow_safe_far_field():
    m = TanhPart(alpha=1.0, bound=1.0)
    big = np.array([-1e6, 1e6])
    assert np.all(np.isfinite(m(big, 1)))
    assert np.all(np.isfinite(m(big, 2)))
    assert np.all(np.isfinite(m.antiderivative(big)))


def test_from_config_round_trip():
    nl = nonlinearity_from_config({"s": 3, "a": A_TERMS,
                                   "m": {"kind": "tanh", "alpha": 1.0}, "b": []})
    assert nl.s == 3.0
    assert nl.certificate is not None
    with pytest.raises(NonlinearityRejected):
        nonlinearity_from_config({"s": 3, "a": A_TERMS, "m": {"kind": "none"}})


def values_by_expression(nl, x, u, order):
    """f^(order)(x, u) and F(x, u) by the expressions ``values`` and
    ``potential_values`` apply to an array x."""
    ax = np.asarray(nl.a(x), dtype=np.float64)
    bx = np.asarray(nl.b(x), dtype=np.float64)
    if u.ndim == 2:
        ax, bx = ax[:, None], bx[:, None]
    f = ax * nl._power(u, order) + nl.m(u, order)
    F = ax * np.abs(u) ** (nl.s + 1) / (nl.s + 1) + bx * u + nl.m.antiderivative(u)
    return (f + bx if order == 0 else f), F


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_values_on_any_x_and_on_the_cached_grid(order):
    # an array x is evaluated as it always was; an int n reads the cached
    # profiles of the grid x_i = i pi / n and gives the same bits as that x
    nl = make_nonlinearity(3, A_TERMS, {"kind": "tanh", "alpha": 1.0},
                           [{"j": 0, "c": 0.2}, {"j": 2, "c": 0.1, "c_sin": -0.3}])
    rng = np.random.default_rng(order)
    x = rng.uniform(-2.0, 5.0, size=37)  # not a grid
    for u in (rng.standard_normal(37), rng.standard_normal((37, 5))):
        f, F = values_by_expression(nl, x, u, order)
        assert nl.values(x, u, order).tobytes() == f.tobytes()
        assert nl.potential_values(x, u).tobytes() == F.tobytes()
    n = 24
    U = rng.standard_normal((n, n))
    x_grid = np.pi * np.arange(n) / n
    assert nl.values(n, U, order).tobytes() == nl.values(x_grid, U, order).tobytes()
    assert nl.potential_values(n, U).tobytes() == nl.potential_values(x_grid, U).tobytes()
    profiles = grid_profiles(nl, n)
    assert profiles.a.tobytes() == nl.a(x_grid).tobytes()
    assert profiles.b.tobytes() == nl.b(x_grid).tobytes()
    assert grid_profiles(nl, n) is profiles
