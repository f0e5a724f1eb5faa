"""Generalized Laguerre polynomials, the radial-oscillator parameters,
and the type-I/II seed functions with their gauge factors.

Seeds are kept in factored gauge-times-polynomial form (`QuasiPoly`),
which is closed under differentiation, so every Wronskian entry stays an
exact rational object.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import SpecInvalid
from .exactmath import Poly, Rational, _poly

HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def laguerre(n: int, a: Rational) -> Poly:
    """Exact L_n^{(a)}(z) from the series; degree exactly n.

    Coefficient of z^i is (-1)^i (a+i+1)_{n-i} / ((n-i)! i!), which gives
    L_n^{(a)}(0) = (a+1)_n / n!.  With a = p/q, n! q^n times it is the int
    (-1)^i C(n, i) q^i (p + (i+1) q) ... (p + n q), reduced once at the end.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    num, prod = [0] * (n + 1), 1
    for i in range(n, -1, -1):
        num[i] = (-1) ** i * math.comb(n, i) * q**i * prod
        prod *= p + i * q
    return _poly(num, q**n * math.factorial(n))


@dataclass(frozen=True)
class IsotonicParams:
    """Radial oscillator parameters: angular momentum l >= 0 and omega > 0."""

    l: Rational
    omega: Rational

    def __post_init__(self):
        object.__setattr__(self, "l", Fraction(self.l))
        object.__setattr__(self, "omega", Fraction(self.omega))
        if self.l < 0:
            raise SpecInvalid(f"angular momentum must be nonnegative, got {self.l}")
        if self.omega <= 0:
            raise SpecInvalid(f"omega must be positive, got {self.omega}")

    @property
    def alpha(self) -> Rational:
        return self.l + HALF

    def potential(self, x):
        """V(x) = omega^2 x^2 / 4 + l(l+1)/x^2, numpy-friendly."""
        w = float(self.omega)
        cf = float(self.l * (self.l + 1))
        return 0.25 * w * w * x * x + cf / (x * x)


class SeedKind(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


@dataclass(frozen=True)
class SeedSpec:
    kind: SeedKind
    m: int

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise SpecInvalid(f"seed index must be a positive integer, got {self.m}")


@dataclass(frozen=True)
class QuasiPoly:
    """A value z^zpower * e^(expsign*z/2) * poly(z), exact and closed
    under d/dz."""

    zpower: Rational
    expsign: int
    poly: Poly

    def __post_init__(self):
        object.__setattr__(self, "zpower", Fraction(self.zpower))
        if self.expsign not in (-1, 1):
            raise ValueError("expsign must be -1 or +1")

    def diff(self) -> "QuasiPoly":
        """d/dz [z^a e^{sz/2} P] = z^{a-1} e^{sz/2} (aP + (s/2) zP + zP'), in one
        int pass: with a = an/ad and P = num/den, the coefficient of z^i is
        2 (an + i ad) num_i + s ad num_{i-1}, over 2 ad den."""
        a, s, p = self.zpower, self.expsign, self.poly
        an, ad = a.numerator, a.denominator
        pairs = enumerate(zip((*p.num, 0), (0, *p.num)))
        num = [2 * (an + i * ad) * c + s * ad * b for i, (c, b) in pairs]
        return QuasiPoly(a - 1, s, _poly(num, 2 * ad * p.den))

    def eval_float(self, z):
        """Floating-point value at z > 0 (scalar or numpy array)."""
        import numpy as np

        z = np.asarray(z, dtype=float)
        val = np.power(z, float(self.zpower)) * np.exp(self.expsign * z / 2.0)
        val = val * _polyval(self.poly, z)
        return val if val.ndim else float(val)


def _polyval(p: Poly, z):
    import numpy as np

    # int / int rounds correctly, as float(Fraction) does
    acc = np.zeros_like(z, dtype=float)
    for c in reversed(p.num):
        acc = acc * z + c / p.den
    return acc


def make_seed(spec: SeedSpec, alpha_prime: Rational) -> QuasiPoly:
    """Seed function for the starting potential with parameter alpha_prime.

    Type I comes from the omega -> -omega symmetry and lies below the
    ground state for every m; type II (alpha -> -alpha) requires
    alpha_prime > m to be nodeless.
    """
    alpha_prime = Fraction(alpha_prime)
    if alpha_prime < HALF:
        raise SpecInvalid(f"alpha' must be >= 1/2, got {alpha_prime}")
    m = spec.m
    if spec.kind is SeedKind.TYPE_I:
        return QuasiPoly((alpha_prime + HALF) / 2, +1, laguerre(m, alpha_prime).compose_neg())
    return QuasiPoly(-(alpha_prime - HALF) / 2, -1, laguerre(m, -alpha_prime))


def bound_gauge(alpha: Rational) -> QuasiPoly:
    """Ground-state gauge factor z^{(alpha+1/2)/2} e^{-z/2}."""
    return QuasiPoly((Fraction(alpha) + HALF) / 2, -1, Poly.one())

