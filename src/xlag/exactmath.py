"""Exact rational arithmetic, combinatorial symbols, and dense polynomials.

Everything here is exact: coefficients are `fractions.Fraction`, so no
operation ever rounds.  Floats enter the codebase only in the numeric
verification layer (`spectral`), never here.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotDivisible, ZeroPolynomial

Rational = Fraction


def pochhammer(a: Rational, n: int) -> Rational:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def vandermonde(ns) -> int:
    """prod_{i<j} (n_j - n_i); equals 1 for lists of length 0 or 1."""
    ns = list(ns)
    out = 1
    for i in range(len(ns)):
        for j in range(i + 1, len(ns)):
            out *= ns[j] - ns[i]
    return out


def sign(x) -> int:
    """-1, 0 or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class Poly:
    """Dense univariate polynomial in z over exact rationals.

    Coefficients are stored lowest power first with no trailing zeros; the
    zero polynomial has an empty coefficient tuple and degree `None`
    (a sentinel, so degree arithmetic never silently mixes in -1).
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def monomial(coeff, power: int) -> "Poly":
        return Poly((0,) * power + (coeff,))

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Degree as int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def leading(self) -> Rational:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def constant(self) -> Rational:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __getitem__(self, power: int) -> Rational:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) - self

    def diff(self) -> "Poly":
        """Exact formal derivative with respect to z."""
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def eval(self, z0) -> Rational:
        """Exact Horner evaluation at a rational point."""
        z0 = Fraction(z0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z0 + c
        return acc

    def shift_up(self, e: int) -> "Poly":
        """Multiply by z^e."""
        if not self.coeffs:
            return Poly()
        return Poly((Fraction(0),) * e + self.coeffs)

    def divexact_zpow(self, e: int) -> "Poly":
        """Divide by z^e, requiring the e lowest coefficients to vanish.

        A nonzero low coefficient raises NotDivisible: downstream this is a
        genuine bug detector, because the structure theory guarantees the
        determinants it is applied to are divisible.
        """
        if e < 0:
            raise ValueError("power must be nonnegative")
        if self.is_zero:
            return self
        if any(self.coeffs[i] for i in range(min(e, len(self.coeffs)))) or len(self.coeffs) < e:
            raise NotDivisible(f"polynomial not divisible by z^{e}")
        return Poly(self.coeffs[e:])

    def divmod(self, other: "Poly"):
        """Euclidean division: self = q*other + r with deg r < deg other."""
        if other.is_zero:
            raise ZeroPolynomial("division by zero polynomial")
        rem = list(self.coeffs)
        d = len(other.coeffs)
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - d + 1, 0)
        while len(rem) >= d:
            c = rem[-1] / lead
            pos = len(rem) - d
            quot[pos] = c
            for i, b in enumerate(other.coeffs):
                rem[pos + i] -= c * b
            rem.pop()
            while rem and not rem[-1]:
                rem.pop()
        return Poly(quot), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no monic form")
        inv = 1 / self.leading
        return Poly(tuple(c * inv for c in self.coeffs))

    def compose_neg(self) -> "Poly":
        """Substitute z -> -z."""
        return Poly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)))

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                zp = "z" if i == 1 else f"z^{i}"
                term = zp if mag == 1 else f"{mag}*{zp}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


def _coerce(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    raise TypeError(f"cannot coerce {type(v)!r} to Poly")


def remainder_chain(a: Poly, b: Poly):
    """a, b and the negated primitive pseudo-remainders of Euclid's
    algorithm on them, down to the last nonzero member, which is gcd(a, b)
    up to a constant factor (a zero b is left out).

    Members after the first two are rescaled by positive constants to
    primitive integer form, so with b = a' this is the Sturm chain of a:
    sign variations, which is all it is read for, are unaffected, while
    coefficient growth stays tame.
    """
    chain = [a] if b.is_zero else [a, b]
    A = _int_primitive(list(a.coeffs))
    B = _int_primitive(list(b.coeffs))
    while B:
        R = _int_prem(A, B)
        if not R:
            break
        R = _int_make_primitive([-c for c in R])
        chain.append(Poly(R))
        A, B = B, R
    return chain


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (gcd(0,0) = 0)."""
    last = remainder_chain(a, b)[-1]
    return last.monic() if last else last


# -- integer-coefficient kernels ------------------------------------------
#
# Determinants and remainder chains spend all their time in coefficient
# arithmetic, and Python ints are ~20x faster than Fraction.  The helpers
# below work on plain lists of ints (lowest power first, no trailing
# zeros); callers scale in and out of Fraction at the boundary.


def _int_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _int_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _int_sub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    return _int_trim(out)


def _int_divexact(a, b):
    """Exact quotient in Z[z]; the caller guarantees divisibility."""
    a = list(a)
    d = len(b)
    lead = b[-1]
    quot = [0] * max(len(a) - d + 1, 0)
    while len(a) >= d:
        c = a[-1] // lead
        pos = len(a) - d
        quot[pos] = c
        for i, bc in enumerate(b):
            a[pos + i] -= c * bc
        _int_trim(a)
    return quot


def _int_prem(a, b):
    """Pseudo-remainder scaled so it is a *positive* multiple of rem(a, b)."""
    a = list(a)
    d = len(b)
    lead = b[-1]
    steps = len(a) - d + 1
    if steps > 0:
        scale = lead ** steps
        a = [c * scale for c in a]
    while len(a) >= d:
        c = a[-1] // lead
        pos = len(a) - d
        for i, bc in enumerate(b):
            a[pos + i] -= c * bc
        _int_trim(a)
    if steps > 0 and lead < 0 and steps % 2:
        a = [-c for c in a]
    return a


def _int_make_primitive(a):
    if a:
        g = 0
        for c in a:
            g = math.gcd(g, c)
        if g > 1:
            for i in range(len(a)):
                a[i] //= g
    return a


def _int_primitive(coeffs):
    """Scale Fraction coefficients to a primitive int list (sign kept)."""
    if not coeffs:
        return []
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    out = [int(c * den) for c in coeffs]
    return _int_make_primitive(out)


def poly_mat_det(matrix) -> Poly:
    """Determinant of a square matrix of Poly, by fraction-free elimination.

    Bareiss one-step elimination: every intermediate entry is divisible by
    the previous pivot, so all divisions are exact in Z[z].  Column scaling
    clears denominators up front; the accumulated scale is divided back out
    of the final entry.
    """
    n = len(matrix)
    if n == 0:
        return Poly.one()
    scale = Fraction(1)
    cols = []
    for j in range(n):
        den = 1
        for i in range(n):
            for c in matrix[i][j].coeffs:
                den = den * c.denominator // math.gcd(den, c.denominator)
        scale *= den
        cols.append(den)
    M = [[[int(c * cols[j]) for c in matrix[i][j].coeffs] for j in range(n)] for i in range(n)]
    sgn = 1
    prev = [1]
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sgn = -sgn
                    break
            else:
                return Poly()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _int_sub(_int_mul(M[k][k], M[i][j]), _int_mul(M[i][k], M[k][j]))
                M[i][j] = _int_divexact(num, prev) if k else num
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return Poly(tuple(Fraction(sgn * c, 1) / scale for c in det))


def rational_nullspace(rows):
    """Null-space basis of a matrix of Fractions (list of row lists).

    Returns a list of basis vectors (lists of Fraction), one per free
    column after reduction to row echelon form.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    M = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(M)):
            if M[i][c]:
                piv = i
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [v * inv for v in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [vi - f * vr for vi, vr in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == len(M):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -M[ri][fc]
        basis.append(vec)
    return basis
