"""Generalized Laguerre polynomials and the type-I/II seed functions
with their gauge factors.

Seeds are kept in factored gauge-times-polynomial form (`QuasiPoly`),
which is closed under differentiation, so every Wronskian entry stays an
exact rational object.  The module is exact only: float evaluation, of
polynomials and of the bound-state gauge alike, belongs to `spectral`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import SpecInvalid
from .exactmath import Poly, _poly

HALF = Fraction(1, 2)


@lru_cache(maxsize=None, typed=True)  # typed: a float a must miss the cache and be refused
def laguerre(n: int, a: Fraction) -> Poly:
    """Exact L_n^{(a)}(z) from the series; degree exactly n.  A float `a`
    is rejected with TypeError.

    Coefficient of z^i is (-1)^i (a+i+1)_{n-i} / ((n-i)! i!), which gives
    L_n^{(a)}(0) = (a+1)_n / n!.  With a = p/q, n! q^n times it is the int
    (-1)^i C(n, i) q^i (p + (i+1) q) ... (p + n q), reduced once at the end.
    """
    if not isinstance(a, (int, Fraction)):
        raise TypeError(f"laguerre argument must be int or Fraction, got {a!r}")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    num, prod = [0] * (n + 1), 1
    for i in range(n, -1, -1):
        num[i] = (-1) ** i * math.comb(n, i) * q**i * prod
        prod *= p + i * q
    return _poly(num, q**n * math.factorial(n))


class SeedKind(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


@dataclass(frozen=True)
class QuasiPoly:
    """A value z^zpower * e^(expsign*z/2) * poly(z), exact and closed
    under d/dz."""

    zpower: Fraction
    expsign: int
    poly: Poly

    def __post_init__(self):
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


def make_seed(kind: SeedKind, m: int, alpha_prime: Fraction) -> QuasiPoly:
    """Seed function for the starting potential with parameter alpha_prime.

    Type I comes from the omega -> -omega symmetry and lies below the
    ground state for every m; type II (alpha -> -alpha) requires
    alpha_prime > m to be nodeless.  A float alpha_prime is rejected with
    TypeError.
    """
    if not isinstance(alpha_prime, (int, Fraction)):
        raise TypeError(f"make_seed argument must be int or Fraction, got {alpha_prime!r}")
    if alpha_prime < HALF:
        raise SpecInvalid(f"alpha' must be >= 1/2, got {alpha_prime}")
    if kind is SeedKind.TYPE_I:
        return QuasiPoly((alpha_prime + HALF) / 2, +1, laguerre(m, alpha_prime).compose_neg())
    return QuasiPoly(-(alpha_prime - HALF) / 2, -1, laguerre(m, -alpha_prime))
