"""Generalized Laguerre polynomials and the derivative tables of the
type-I/II seed functions, built on ints.

A seed is z^a e^(sz/2) P(z) with P a Laguerre polynomial, a form closed
under d/dz, so its table of derivatives is a table of polynomials P_r.
Each is emitted as int coefficients over one int denominator, unreduced,
for `exactmath._int_column` to bring to lowest terms once per column.
The module is exact only: float evaluation, of polynomials and of the
bound-state gauge alike, belongs to `spectral`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .exactmath import Poly, _poly

HALF = Fraction(1, 2)


def laguerre_series(n: int, p: int, q: int, negated: bool = False) -> list:
    """n! q^n L_n^{(p/q)}(z), or at -z when negated, as ints lowest power
    first, for any int p and positive int q, reduced or not: the
    coefficient of z^i is (-1)^i C(n, i) q^i (p + (i+1) q) ... (p + n q),
    the sign dropped when negated.  A negative n gives the zero polynomial,
    the convention of the gamma matrix."""
    num, prod, c = [0] * (n + 1), 1, q ** max(n, 0)
    for i in range(n, -1, -1):
        num[i] = c * prod if negated or i % 2 == 0 else -c * prod
        prod *= p + i * q
        c = c * i // ((n - i + 1) * q)  # C(n, i-1) q^(i-1)
    return num


def laguerre(n: int, a: Fraction) -> Poly:
    """Exact L_n^{(a)}(z) from the series; degree exactly n.  A bool `n`
    and a float or bool `a` are rejected with TypeError.

    Coefficient of z^i is (-1)^i (a+i+1)_{n-i} / ((n-i)! i!), which gives
    L_n^{(a)}(0) = (a+1)_n / n!.  With a = p/q this is `laguerre_series`
    over n! q^n, reduced once at the end.
    """
    if isinstance(n, bool) or isinstance(a, bool) or not isinstance(a, (int, Fraction)):
        raise TypeError(f"laguerre degree must be int, argument must be int or Fraction, got {n!r}, {a!r}")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    return _poly(laguerre_series(n, p, q), q**n * math.factorial(n))


def seed_derivatives(type_i: bool, m: int, alpha_prime: Fraction, k: int) -> list:
    """The seed of index m for the starting parameter alpha_prime and its
    first k - 1 z-derivatives z^(a-r) e^(sz/2) P_r(z), as the k pairs
    (num, den) of P_r, row r over den_0 (2 ad)^r.

    Type I, from the omega -> -omega symmetry, lies below the ground state
    for every m: a = (a'+1/2)/2, s = +1, P_0 = L_m^{(a')}(-z).  Type II
    (alpha -> -alpha) is nodeless only for a' > m: a = -(a'-1/2)/2, s = -1,
    P_0 = L_m^{(-a')}(z).  Each step is
    d/dz [z^a e^{sz/2} P] = z^{a-1} e^{sz/2} (aP + (s/2) zP + zP'): with
    a = an/ad and P = num/den, the coefficient of z^i is
    2 (an + i ad) num_i + s ad num_{i-1}, over 2 ad den, with no trailing
    zero since s ad num_top is not 0.
    """
    s, p, q = 1 if type_i else -1, alpha_prime.numerator, alpha_prime.denominator
    an, ad = 2 * s * p + q, 4 * q  # a = s (a' + s/2) / 2
    g = math.gcd(an, ad)
    an, ad = an // g, ad // g
    num, den = laguerre_series(m, s * p, q, type_i), q**m * math.factorial(m)
    table = [(num, den)]
    for _ in range(k - 1):
        num = [2 * (an + i * ad) * c + s * ad * b for i, (c, b) in enumerate(zip(num + [0], [0] + num))]
        den, an = 2 * ad * den, an - ad
        table.append((num, den))
    return table
