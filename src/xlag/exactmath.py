"""Exact rational arithmetic, combinatorial symbols, and dense polynomials.

Everything here is exact, so no operation ever rounds: a polynomial is a
tuple of Python-int numerators over one int denominator, and scalars are
built on ints and handed out as `fractions.Fraction`.  Floats enter the
codebase only in the numeric verification layer (`spectral`), never here.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotDivisible, ZeroPolynomial


def pochhammer(a: Fraction, n: int) -> Fraction:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1: for a = p/q
    the int p (p+q) ... (p+(n-1)q) over q^n, as one Fraction.  A float `a` is
    rejected with TypeError, neither rounded nor converted."""
    if not isinstance(a, (int, Fraction)):
        raise TypeError(f"pochhammer argument must be int or Fraction, got {a!r}")
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    p, q = a.numerator, a.denominator
    return Fraction(math.prod(range(p, p + n * q, q)), q**n)


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
    """Dense univariate polynomial in z over the rationals, in integer
    content form: a tuple `num` of int numerators, lowest power first with
    no trailing zeros, over one positive int denominator `den`, reduced so
    that gcd(den, *num) = 1.

    The form is canonical, so equality and hashing are tuple compares, and
    arithmetic runs on the ints with a single gcd per result.  A Poly
    equals only a Poly, never a scalar, so equal objects hash alike; a
    constant is spelled `Poly((c,))`.  An int or Fraction may stand on the
    right of + and -, and on either side of *.  `coeffs` is a read-only
    Fraction view.  The zero polynomial `Poly()` is the only falsy one; it
    has num = (), den = 1 and degree `None` (a sentinel, so degree
    arithmetic never silently mixes in -1).  Instances are immutable and
    hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            raise TypeError(f"Poly coefficients must be int or Fraction, got {coeffs!r}")
        den = math.lcm(*(c.denominator for c in coeffs))
        _init(self, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        # pickle would restore the slots through __setattr__; rebuild instead
        return (_poly, (list(self.num), self.den))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions, lowest power first."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self):
        """Degree as int, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    @property
    def leading(self) -> Fraction:
        return self[len(self.num) - 1]

    @property
    def constant(self) -> Fraction:
        return self[0]

    def __getitem__(self, power: int) -> Fraction:
        if 0 <= power < len(self.num):
            return Fraction(self.num[power], self.den)
        return Fraction(0)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        a, b, den = self.num, other.num, self.den
        if den != other.den:
            g = math.gcd(den, other.den)
            a = [c * (other.den // g) for c in a]
            b = [c * (den // g) for c in b]
            den = den // g * other.den
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, den)

    def __neg__(self) -> "Poly":
        return _poly([-c for c in self.num], self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return _poly([c * other for c in self.num], self.den)
        if isinstance(other, Fraction):
            return _poly([c * other.numerator for c in self.num], self.den * other.denominator)
        other = _coerce(other)
        return _poly(_int_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def diff(self) -> "Poly":
        """Exact formal derivative with respect to z."""
        return _poly([i * c for i, c in enumerate(self.num) if i], self.den)

    def eval(self, z0) -> Fraction:
        """Exact Horner evaluation at a rational point p/q, on the ints:
        sum num_i p^i q^(n-i), over den q^n."""
        z0 = Fraction(z0)
        p, q = z0.numerator, z0.denominator
        acc, qpow = 0, 1
        for c in reversed(self.num):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, self.den * qpow // q) if self.num else Fraction(0)

    def shift_up(self, e: int) -> "Poly":
        """Multiply by z^e."""
        if e < 0:
            raise ValueError("power must be nonnegative")
        return _poly([0] * e + list(self.num), self.den) if self.num else self

    def divexact_zpow(self, e: int) -> "Poly":
        """Divide by z^e, requiring the e lowest coefficients to vanish.

        A nonzero low coefficient raises NotDivisible: downstream this is a
        genuine bug detector, because the structure theory guarantees the
        determinants it is applied to are divisible.
        """
        if e < 0:
            raise ValueError("power must be nonnegative")
        if not self:
            return self
        if len(self.num) < e or any(self.num[:e]):
            raise NotDivisible(f"polynomial not divisible by z^{e}")
        return _poly(list(self.num[e:]), self.den)

    def monic(self) -> "Poly":
        if not self:
            raise ZeroPolynomial("zero polynomial has no monic form")
        return _poly(list(self.num), self.num[-1])

    def compose_neg(self) -> "Poly":
        """Substitute z -> -z."""
        return _poly([-c if i % 2 else c for i, c in enumerate(self.num)], self.den)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


def _init(p: Poly, num: list, den: int) -> Poly:
    """Trim num, reduce num/den by gcd(den, *num) with den > 0, and store."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    object.__setattr__(p, "num", tuple(num))
    object.__setattr__(p, "den", den)
    return p


def _poly(num: list, den: int = 1) -> Poly:
    """The Poly num/den; num is consumed."""
    return _init(object.__new__(Poly), num, den)


def _coerce(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly((v,))
    raise TypeError(f"cannot coerce {type(v)!r} to Poly")


def remainder_chain(a: Poly, b: Poly):
    """a, b and the negated primitive pseudo-remainders of Euclid's
    algorithm on them, down to the last nonzero member, which is gcd(a, b)
    up to a constant factor (a zero b is left out).

    Members after the first two are rescaled by positive constants to
    primitive integer form, so with b = a' this is the Sturm chain of a:
    sign variations, which is all it is read for, are unaffected, while
    coefficient growth stays tame.  The chain runs on the numerators.
    """
    chain = [a, b] if b else [a]
    A, B = _int_primitive(a.num), _int_primitive(b.num)
    while B:
        R = _int_prem(A, B)
        if not R:
            break
        R = _int_primitive([-c for c in R])
        chain.append(_poly(R))
        A, B = B, R
    return chain


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (gcd(0,0) = 0)."""
    last = remainder_chain(a, b)[-1]
    return last.monic() if last else last


# -- integer-coefficient kernels ------------------------------------------
#
# Plain lists of ints, lowest power first: Poly's numerators, and the
# entries of the determinant and the remainder chain.


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


def _int_divmod(a, b):
    """Quotient and remainder in Z[z]; lead(b) must divide each leading term
    met, as in an exact division or a pseudo-division's scaled dividend."""
    a = list(a)
    d = len(b)
    quot = [0] * max(len(a) - d + 1, 0)
    while len(a) >= d:
        c = a[-1] // b[-1]
        pos = len(a) - d
        quot[pos] = c
        for i, bc in enumerate(b):
            a[pos + i] -= c * bc
        _int_trim(a)
    return quot, a


def _int_prem(a, b):
    """Pseudo-remainder scaled so it is a *positive* multiple of rem(a, b)."""
    steps = max(len(a) - len(b) + 1, 0)
    scale = b[-1] ** steps
    _, rem = _int_divmod([c * scale for c in a], b)
    return [-c for c in rem] if b[-1] < 0 and steps % 2 else rem


def _int_primitive(a):
    """a divided by the gcd of its entries (sign kept), as a list."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else list(a)


def _int_taylor1(a):
    """a(z + 1), by the O(n^2) repeated synthetic division."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _int_coprime_mod(a, b, p):
    """True if Euclid over GF(p) ends a, b in a nonzero constant, by the
    inverse-free step a <- lead(b) a - lead(a) z^k b (twice in one pass at k = 1)."""
    a, b = _int_trim([c % p for c in a]), _int_trim([c % p for c in b])
    while len(b) > 1:
        lb = b[-1]
        if len(a) == len(b) + 1:
            la, top = a[-1], (lb * a[-2] - a[-1] * b[-2]) % p
            a = [(lb * (lb * x - la * y) - top * w) % p for x, y, w in zip(a, [0] + b, b[:-1])]
        while len(a) >= len(b):
            k, la = len(a) - len(b), a[-1]
            a = [lb * x % p for x in a[:k]] + [(lb * x - la * y) % p for x, y in zip(a[k:-1], b)]
        a, b = b, _int_trim(a)
    return len(b) == 1


def poly_mat_det(matrix, minors: bool = False):
    """Determinant of a square matrix of Poly, by fraction-free elimination.

    Bareiss one-step elimination on the numerators: every intermediate
    entry is divisible by the previous pivot, so all divisions are exact in
    Z[z].  Each column is scaled up front by the lcm of its denominators;
    their product is the determinant's denominator.

    Entries left in place are minors (Bareiss 1968).  With `minors`, the
    result is (det, minors) with the three that the last step reads, for
    n >= 2 (0-based): the leading (n-1)-minor, the one on rows 0..n-2 and
    columns 0..n-3, n-1, and the leading (n-2)-minor; None after a row swap.
    """
    n = len(matrix)
    if n == 0:
        return (Poly((1,)), None) if minors else Poly((1,))
    cols = [math.lcm(*(row[j].den for row in matrix)) for j in range(n)]
    M = [[[c * (cols[j] // e.den) for c in e.num] for j, e in enumerate(row)] for row in matrix]
    sgn = 1
    prev = [1]
    swapped = sub = None
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sgn = -sgn
                    swapped = True
                    break
            else:
                return (Poly(), None) if minors else Poly()
        if minors and k == n - 2 and not swapped:
            scale = math.prod(cols[: n - 2])
            sub = (
                _poly(list(M[k][k]), scale * cols[n - 2]),
                _poly(list(M[k][n - 1]), scale * cols[n - 1]),
                _poly(list(prev), scale),
            )
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _int_sub(_int_mul(M[k][k], M[i][j]), _int_mul(M[i][k], M[k][j]))
                M[i][j] = _int_divmod(num, prev)[0] if k else num
        prev = M[k][k]
    det = _poly([sgn * c for c in M[n - 1][n - 1]], math.prod(cols))
    return (det, sub) if minors else det


def rational_nullspace(rows):
    """Null-space basis of a matrix of ints or Fractions (list of row
    lists), reduced over Fractions.

    Returns a list of basis vectors (lists of Fraction), one per free
    column after reduction to row echelon form.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    M = [[Fraction(v) for v in r] for r in rows]
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
