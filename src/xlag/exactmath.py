"""Exact rational arithmetic, combinatorial symbols, and dense polynomials.

Everything here is exact, so no operation ever rounds: a polynomial is a
tuple of Python-int numerators over one int denominator, and scalars are
built on ints and handed out as `fractions.Fraction`.  Floats enter the
codebase only in the numeric verification layer (`spectral`), never here.
A polynomial determinant takes its matrix as int coefficient lists with one
denominator per column, which its builders emit with no `Poly` per entry
and one content gcd per column.  A small one runs on ints, its entries
packed at z = 2^B with B from the smaller of a row and a column bound on
every minor, so each Z[z] product and exact division is one big-int
operation (Kronecker substitution).  The remainder chain divides each
pseudo-remainder by its predicted content lc(A)^2 before a gcd takes the rest.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import NotDivisible, ZeroPolynomial


def vandermonde(ns) -> int:
    """prod_{i<j} (n_j - n_i); equals 1 for lists of length 0 or 1."""
    ns = list(ns)
    return math.prod(ns[j] - ns[i] for i in range(len(ns)) for j in range(i + 1, len(ns)))


def sign(x) -> int:
    """-1, 0 or +1."""
    return (x > 0) - (x < 0)


class Poly:
    """Dense univariate polynomial in z over the rationals, in integer
    content form: a tuple `num` of int numerators, lowest power first with
    no trailing zeros, over one positive int denominator `den`, reduced so
    that gcd(den, *num) = 1.

    The form is canonical, so equality and hashing are tuple compares, and
    arithmetic runs on the ints with a single gcd per result.  A Poly
    equals only a Poly, never a scalar, so equal objects hash alike; a
    constant is spelled `Poly((c,))`.  An int or Fraction, never a bool or
    float, may stand on the right of + and -, and on either side of *.
    `coeffs` is a read-only Fraction view.  The zero polynomial `Poly()` is
    the only falsy one; it has num = (), den = 1 and degree `None` (a
    sentinel, so degree arithmetic never silently mixes in -1).  Instances
    are immutable and hashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        if not all(isinstance(c, (int, Fraction)) and not isinstance(c, bool) for c in coeffs):
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
        other = _coerce(other)
        return _poly(_int_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def diff(self) -> "Poly":
        """Exact formal derivative with respect to z."""
        return _poly([i * c for i, c in enumerate(self.num) if i], self.den)

    def eval(self, z0) -> Fraction:
        """Exact Horner evaluation at an int or Fraction (never a bool or
        float) p/q, on the ints: sum num_i p^i q^(n-i), over den q^n."""
        if isinstance(z0, bool) or not isinstance(z0, (int, Fraction)):
            raise TypeError(f"Poly.eval takes an int or Fraction, got {z0!r}")
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

    A normal step (deg A = deg B + 1, B not constant) forms the pseudo-
    remainder R = lb^2 A - (la lb z + e) B, e = lb a_(n-1) - la b_(n-2), in
    one pass; other degree drops take `_int_prem`.  The content of R is
    lc(A)^2 up to a ratio of subresultant contents (Collins 1967, Brown &
    Traub 1971), so `_int_divide_out` divides that out first and a gcd
    takes only the small rest: exact for any divisor, which sets the speed.
    """
    chain = [a, b] if b else [a]
    A, B = _int_primitive(a.num), _int_primitive(b.num)
    while A and B:
        la, lb = A[-1], B[-1]
        if len(A) == len(B) + 1 > 2:
            e, l2, f = lb * A[-2] - la * B[-2], lb * lb, la * lb
            R = _int_trim([f * b1 + e * b0 - l2 * c for c, b0, b1 in zip(A, B[:-1], [0, *B])])
        else:
            R = [-c for c in _int_prem(A, B)]
        if not R:
            break
        R = _int_primitive(_int_divide_out(R, la * la))
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


def _int_divide_out(a, h):
    """a over gcd(h, *a), h > 0, found while dividing: on a remainder m, h
    shrinks to gcd(h, m) and the quotients so far scale by old h / new h."""
    out = []
    for c in a:
        q, m = divmod(c, h)
        if m:
            g = math.gcd(h, m)
            out, h, q = [x * (h // g) for x in out], g, c // g
        out.append(q)
    return out


def _int_primitive(a):
    """a divided by the gcd of its entries (sign kept), as a list."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else list(a)


def _int_pack(a, bits):
    """a at z = 2^bits."""
    v = 0
    for c in reversed(a):
        v = (v << bits) + c
    return v


def _int_unpack(v, bits):
    """The balanced base-2^bits digits of v, lowest first: a again, for
    v = _int_pack(a, bits) with every |a_i| below 2^(bits - 1)."""
    out, half, mask = [], 1 << (bits - 1), (1 << bits) - 1
    while v:
        v += half
        out.append((v & mask) - half)
        v >>= bits
    return out


def _int_taylor1(a):
    """a(z + 1), by the O(n^2) repeated synthetic division."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _int_coprime_mod(a, b, p):
    """True if Euclid over GF(p), p prime, ends a, b in a nonzero constant."""
    a, b = _int_trim([c % p for c in a]), _int_trim([c % p for c in b])
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        while len(a) >= len(b):
            k, la = len(a) - len(b), a[-1]
            a = a[:k] + [(x - la * y) % p for x, y in zip(a[k:-1], b)]
        a, b = b, _int_trim(a)
    return len(b) == 1


def _int_columns(cols):
    """The matrix whose column j holds the polynomials num/den of the (num,
    den) pairs in cols[j], in `poly_mat_det`'s int form: int coefficient
    rows over one denominator per column, the lcm of the column's.

    One content gcd per column, taken with that denominator, brings the
    column to lowest terms, so it is the column of reduced `Poly`s scaled
    by the lcm of their denominators: the entries need no reduction of
    their own, and the packed size, and with it the route, is theirs.
    """
    scaled, dens = [], []
    for col in cols:
        den = math.lcm(*(d for _, d in col))
        col = [(a, den // d) for a, d in col]
        g = math.gcd(den, *(f * math.gcd(*a) for a, f in col))
        scaled.append([[c * f // g for c in a] for a, f in col])
        dens.append(den // g)
    return [list(row) for row in zip(*scaled)], dens


def poly_mat_det(rows, dens, minors: bool = False):
    """Determinant of the square polynomial matrix whose entry (i, j) is
    rows[i][j] / dens[j]: int coefficient lists, lowest power first with no
    trailing zeros, over one positive int denominator per column, so the
    determinant is det(rows) / prod(dens).  `_int_columns` builds the form.

    Bareiss one-step elimination: every intermediate entry is divisible by
    the previous pivot, so all divisions are exact.

    Two routes run the one elimination loop.  Every entry it stores, pivots
    and minors read back too, is a minor of the row-permuted int matrix
    M = rows.  Expanded by Leibniz, its l1 norm, and so each coefficient,
    is at most the product of its rows' l1 norms and at most that of its
    columns', and its degree at most either degree sum; a row swap moves
    no column sum.  So its coefficients are at most
    H = min(prod_i max(1, sum_j |M_ij|_1), prod_j max(1, sum_i |M_ij|_1))
    and its degree at most D = min(sum_i max_j deg M_ij, sum_j max_i deg M_ij).
    Where the packed size B (D + 1), with B = H.bit_length() + 1, is at most
    `_PACK_BITS`, each entry is evaluated at X = 2^B and the loop runs on
    plain ints: evaluation is a ring homomorphism, so the exact divisions
    in Z[z] stay exact in Z, and it is one-to-one on coefficients below
    X/2, so a pivot is 0 exactly when its polynomial is and balanced
    base-X digits give the result back.  Above the limit it runs on the
    coefficient lists.  Columns in lowest terms keep H, and so B, as small
    as the form allows.

    Entries left in place are minors (Bareiss 1968).  With `minors`, the
    result is (det, minors) with the three that the last step reads, for
    n >= 2 (0-based): the leading (n-1)-minor, the one on rows 0..n-2 and
    columns 0..n-3, n-1, and the leading (n-2)-minor; None after a row swap.
    """
    return _bareiss(rows, dens, minors, _PACK_BITS)


# The int route's speed over the lists by packed size on 120 random k 5-8
# gamma matrices (Python 3.11, 2 vCPUs): 1.2-5.0x up to 15k bits, 0.7-2.5x
# at 15-25k, 0.7-2.0x at 25-40k, 0.4-1.4x at 40-48k, 0.16-1.0x above.  Their
# total time is least at a limit of 40k, within 0.5% of that from 34k to
# 42k, and 1.2% above it at 2^15, 20% at 2^16.
_PACK_BITS = 40_000


def _bareiss(rows, dens, minors, pack_bits):
    """`poly_mat_det`, on packed ints where the packed size is at most pack_bits."""
    n = len(rows)
    if n == 0:
        return (Poly((1,)), None) if minors else Poly((1,))
    norms = [[sum(map(abs, a)) for a in row] for row in rows]
    lens = [[*map(len, row)] for row in rows]
    bits = min(math.prod(s or 1 for s in map(sum, v)) for v in (norms, zip(*norms))).bit_length() + 1
    if bits * (min(sum(map(max, lens)), sum(map(max, zip(*lens)))) - n + 1) <= pack_bits:
        M = [[_int_pack(a, bits) for a in row] for row in rows]
        prev, mul, sub, div = 1, int.__mul__, int.__sub__, divmod
        read = functools.partial(_int_unpack, bits=bits)
    else:
        M = [list(row) for row in rows]
        prev, mul, sub, div = [1], _int_mul, _int_sub, _int_divmod
        read = list
    sgn = 1
    swapped = sub_minors = None
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
            scale = math.prod(dens[: n - 2])
            sub_minors = (
                _poly(read(M[k][k]), scale * dens[n - 2]),
                _poly(read(M[k][n - 1]), scale * dens[n - 1]),
                _poly(read(prev), scale),
            )
        pivot, top = M[k][k], M[k]
        for row in M[k + 1 :]:
            for j in range(k + 1, n):
                num = sub(mul(pivot, row[j]), mul(row[k], top[j]))
                row[j] = div(num, prev)[0] if k else num
        prev = pivot
    det = _poly(read(M[n - 1][n - 1]), sgn * math.prod(dens))
    return (det, sub_minors) if minors else det


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
