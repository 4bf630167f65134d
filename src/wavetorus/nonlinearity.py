"""Admissible nonlinearities f(x, u) = a(x)|u|^{s-1} u + m(u) + b(x).

The leading coefficient a is a strictly positive pi-periodic trig
polynomial, the monotone part m is a bounded odd tanh profile supplying the
strict monotonicity floor at u = 0, and b is a trig-polynomial offset.
``make_nonlinearity`` validates the family and attaches a growth/coercivity
certificate; the dataclass constructor itself performs no validation so
tests can build deliberately inadmissible objects.

Certificate constants:
  c01 = min a,  c02 = max a            (leading growth envelope)
  c11 = min b - sup|m|,  c21 = max b + sup|m|   (additive envelope)
  alpha_eff = inf over (x, u) of df/du  (strict monotonicity floor)
  a1, a2: coercivity  u f / 2 - F >= a1 |u|^{s+1} - a2.

The two-sided growth envelope is checked in the orientation-safe form
min(c01 g, c02 g) + c11 <= f <= max(c01 g, c02 g) + c21 with
g = |u|^{s-1} u, which is the version that actually holds for a
non-constant leading coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonlinearityRejected, OrderUnavailable


def _sech2(z):
    # sech^2(z) = 4 e^{-2|z|} / (1 + e^{-2|z|})^2, overflow-safe
    e = np.exp(-2.0 * np.abs(z))
    return 4.0 * e / (1.0 + e) ** 2


def _logcosh(z):
    # log cosh z = |z| + log1p(e^{-2|z|}) - log 2
    return np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0)


@dataclass(frozen=True)
class TrigPolynomial:
    """Real pi-periodic trig polynomial sum_j cj cos(2jx) + sj sin(2jx)."""

    cos_coeffs: tuple = (0.0,)
    sin_coeffs: tuple = ()

    @classmethod
    def constant(cls, c: float) -> "TrigPolynomial":
        return cls((float(c),), ())

    @classmethod
    def from_terms(cls, terms) -> "TrigPolynomial":
        """Build from JSON-style terms [{"j": int, "c": float, "c_sin": float}, ...]."""
        deg = 0
        for t in terms:
            deg = max(deg, int(t["j"]))
        cos_c = [0.0] * (deg + 1)
        sin_c = [0.0] * (deg + 1)
        for t in terms:
            j = int(t["j"])
            if j < 0:
                raise ValueError("term index j must be >= 0")
            cos_c[j] += float(t.get("c", 0.0))
            if t.get("c_sin"):
                if j == 0:
                    raise ValueError("sin term requires j >= 1")
                sin_c[j] += float(t["c_sin"])
        return cls(tuple(cos_c), tuple(sin_c[1:]))

    @property
    def degree(self) -> int:
        return max(len(self.cos_coeffs) - 1, len(self.sin_coeffs))

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for j, c in enumerate(self.cos_coeffs):
            if c:
                out = out + c * np.cos(2 * j * x)
        for i, s in enumerate(self.sin_coeffs):
            if s:
                out = out + s * np.sin(2 * (i + 1) * x)
        return out

    def extrema(self, n: int = 8192):
        vals = self(np.pi * np.arange(n) / n)
        return float(np.min(vals)), float(np.max(vals))


@dataclass(frozen=True)
class TanhPart:
    """Bounded odd monotone part m(u) = bound * tanh(alpha u / bound)."""

    alpha: float
    bound: float = 1.0

    def __call__(self, u, order: int = 0):
        c = self.alpha / self.bound
        z = c * np.asarray(u, dtype=np.float64)
        if order == 0:
            return self.bound * np.tanh(z)
        if order == 1:
            return self.alpha * _sech2(z)
        if order == 2:
            return -2.0 * self.alpha * c * _sech2(z) * np.tanh(z)
        if order == 3:
            s2 = _sech2(z)
            return -2.0 * self.alpha * c * c * s2 * (s2 - 2.0 * np.tanh(z) ** 2)
        raise OrderUnavailable(f"order {order} not provided")

    def antiderivative(self, u):
        # int m = (bound^2/alpha) log cosh(alpha u / bound), zero at u = 0
        z = (self.alpha / self.bound) * np.asarray(u, dtype=np.float64)
        return (self.bound**2 / self.alpha) * _logcosh(z)


@dataclass(frozen=True)
class Certificate:
    c01: float
    c02: float
    c11: float
    c21: float
    alpha_eff: float
    a1: float
    a2: float


@dataclass(frozen=True)
class Nonlinearity:
    """Validated family member; build through make_nonlinearity."""

    s: float
    a: TrigPolynomial
    m: TanhPart | None
    b: TrigPolynomial
    certificate: Certificate | None = None

    def _power(self, u, order: int):
        # derivatives of g(u) = |u|^{s-1} u
        s = self.s
        au = np.abs(u)
        if order == 0:
            return au ** (s - 1) * u
        if order == 1:
            return s * au ** (s - 1)
        if order == 2:
            return s * (s - 1) * au ** (s - 3) * u
        if order == 3:
            # even continuation; at s = 3 this is the constant symmetric value
            return s * (s - 1) * (s - 2) * au ** (s - 3)
        raise OrderUnavailable(f"order {order} not provided")

    def _profile(self, part: str, x) -> np.ndarray:
        """a(x) or b(x) (``part`` "a" or "b") as float64; an int x stands for
        the grid x_i = i pi / x, whose profiles are cached (``grid_profiles``)."""
        if isinstance(x, (int, np.integer)):
            return getattr(grid_profiles(self, int(x)), part)
        return np.asarray(getattr(self, part)(x), dtype=np.float64)

    def values(self, x, u, order: int = 0):
        """f and its u-derivatives on arrays; x broadcasts along axis 0, and an
        int x is the grid x_i = i pi / x along axis 0."""
        if order not in (0, 1, 2, 3):
            raise OrderUnavailable(f"order {order} not provided")
        u = np.asarray(u, dtype=np.float64)
        ax = self._profile("a", x)
        if u.ndim == 2 and ax.ndim == 1:
            ax = ax[:, None]
        out = ax * self._power(u, order)
        if self.m is not None:
            out = out + self.m(u, order)
        if order == 0:
            bx = self._profile("b", x)
            if u.ndim == 2 and bx.ndim == 1:
                bx = bx[:, None]
            out = out + bx
        return out

    def potential_values(self, x, u):
        """F(x, u) with dF/du = f and F(x, 0) = 0; x as in ``values``."""
        u = np.asarray(u, dtype=np.float64)
        ax = self._profile("a", x)
        bx = self._profile("b", x)
        if u.ndim == 2 and ax.ndim == 1:
            ax, bx = ax[:, None], bx[:, None]
        out = ax * np.abs(u) ** (self.s + 1) / (self.s + 1) + bx * u
        if self.m is not None:
            out = out + self.m.antiderivative(u)
        return out


@dataclass(frozen=True, eq=False)
class GridProfiles:
    """a(x) and b(x) on one grid, read-only; built by ``grid_profiles``."""

    a: np.ndarray
    b: np.ndarray


@lru_cache(maxsize=64)
def grid_profiles(nl: Nonlinearity, n: int) -> GridProfiles:
    """The cached profiles of ``nl`` on the n-point grid x_i = i pi / n, the
    x of the solver's padded grid, computed once per (nl, n) by the
    expression ``values`` applies to any other x."""
    x = np.pi * np.arange(n) / n
    arrays = {part: np.asarray(getattr(nl, part)(x), dtype=np.float64) for part in ("a", "b")}
    for a in arrays.values():
        a.flags.writeable = False
    return GridProfiles(**arrays)


def _alpha_eff(s: float, a_min: float, m: TanhPart, n: int = 20001) -> float:
    # df/du >= s a_min |u|^{s-1} + m'(u); the infimum is attained on a compact
    # range because the power term exceeds alpha for |u| >= u_star.
    u_star = (m.alpha / (s * a_min)) ** (1.0 / (s - 1.0))
    u = np.linspace(-1.5 * u_star - 1.0, 1.5 * u_star + 1.0, n)
    floor = s * a_min * np.abs(u) ** (s - 1) + m(u, 1)
    return float(min(np.min(floor), m.alpha))


def _coercivity(s: float, a_min: float, sup_m: float, b_abs: float):
    # u f / 2 - F = a(x) (s-1)/(2(s+1)) |u|^{s+1} + (u m / 2 - M) - u b / 2
    #            >= A |u|^{s+1} - B |u|  with the constants below, hence
    #            >= (A/2) |u|^{s+1} - a2.
    A = a_min * (s - 1.0) / (2.0 * (s + 1.0))
    B = 1.5 * sup_m + 0.5 * b_abs
    a1 = A / 2.0
    if B == 0.0:
        return a1, 0.0
    r_star = (2.0 * B / ((s + 1.0) * A)) ** (1.0 / s)
    a2 = B * r_star - (A / 2.0) * r_star ** (s + 1.0)
    return a1, float(max(a2, 0.0))


def make_nonlinearity(s: float, a, m, b=None) -> Nonlinearity:
    """Validate and certify a family member, or raise NonlinearityRejected.

    ``a`` and ``b`` accept TrigPolynomial, a constant, or JSON-style term
    lists; ``m`` accepts TanhPart, None, or {"kind": "tanh", "alpha": ...}.
    """
    a = _as_trig(a)
    b = _as_trig(b) if b is not None else TrigPolynomial.constant(0.0)
    m = _as_monotone(m)
    s = float(s)
    if s < 3.0:
        raise NonlinearityRejected("SmoothnessExponent", f"s={s:g} < 3 breaks C^2 smoothness in u")
    a_min, a_max = a.extrema()
    if a_min <= 0.0:
        raise NonlinearityRejected("NonpositiveLeading", f"min a = {a_min:g} <= 0")
    if a_min <= a_max / (s + 1.0):
        raise NonlinearityRejected(
            "RatioCondition", f"min a = {a_min:g} <= max a / (s+1) = {a_max / (s + 1):g}")
    if m is None:
        raise NonlinearityRejected(
            "NoMonotoneFloor", "df/du vanishes at u = 0 without a bounded monotone part")
    b_min, b_max = b.extrema()
    sup_m = m.bound
    alpha_eff = _alpha_eff(s, a_min, m)
    a1, a2 = _coercivity(s, a_min, sup_m, max(abs(b_min), abs(b_max)))
    cert = Certificate(
        c01=a_min, c02=a_max,
        c11=b_min - sup_m, c21=b_max + sup_m,
        alpha_eff=alpha_eff, a1=a1, a2=a2,
    )
    return Nonlinearity(s=s, a=a, m=m, b=b, certificate=cert)


def _as_trig(a) -> TrigPolynomial:
    if isinstance(a, TrigPolynomial):
        return a
    if isinstance(a, (int, float)):
        return TrigPolynomial.constant(a)
    return TrigPolynomial.from_terms(a)


def _as_monotone(m):
    if m is None or isinstance(m, TanhPart):
        return m
    if isinstance(m, dict):
        kind = m.get("kind", "none")
        if kind == "none":
            return None
        if kind == "tanh":
            alpha = float(m["alpha"])
            bound = float(m.get("bound", 1.0))
            if alpha <= 0 or bound <= 0:
                raise ValueError("tanh part requires alpha > 0 and bound > 0")
            return TanhPart(alpha=alpha, bound=bound)
        raise ValueError(f"unknown monotone part kind {kind!r}")
    raise TypeError(f"cannot interpret monotone part {m!r}")


def nonlinearity_from_config(spec: dict) -> Nonlinearity:
    """Build from the config schema {"s":..., "a":[...], "m":{...}, "b":[...]}."""
    return make_nonlinearity(
        s=spec["s"],
        a=spec.get("a", [{"j": 0, "c": 1.0}]),
        m=spec.get("m", {"kind": "none"}),
        b=spec.get("b", []),
    )
