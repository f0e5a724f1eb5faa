"""Exact rational arithmetic, combinatorial symbols, and dense polynomials.

Everything here is exact, so no operation ever rounds: a polynomial is a
tuple of Python-int numerators over one int denominator, and scalars are
built on ints and handed out as `fractions.Fraction`.  Floats enter the
codebase only in the numeric verification layer (`spectral`), never here.
A polynomial determinant takes int coefficient lists over one denominator
per column and packs them at z = 2^B, so each Z[z] product and exact
division is one big-int operation (Kronecker substitution); a large one
widens B step by step.  The remainder chain divides each pseudo-remainder
by its predicted content lc(A)^2 before a gcd takes the rest; both divide
by one truncated reciprocal past `_RECIP_CUT` bits.  Packed ints
also carry the product of two int lists (one big-int product), the Taylor
shift (Horner at X + 1) and the gcd mod 2^61 - 1 (Euclid on 128-bit
residue slots).
"""
from __future__ import annotations

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

    A read-only value with no arithmetic operators: sums and products run
    on `num` and `den` as int lists (`_int_mul`).  The form is canonical,
    so equality and hashing are tuple compares, and each method result
    takes a single gcd.  A Poly equals only a Poly, never a scalar, so
    equal objects hash alike; a constant is spelled `Poly((c,))`.
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
    Traub 1971), so `_int_divide_out` divides that out first, past
    `_RECIP_CUT` bits by one reciprocal, and a gcd takes only the small
    rest: exact for any divisor, which sets the speed.
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
    """a b (nonzero tops) as one product at z = 2^w, w the whole bytes that
    hold min(len a, len b) max|a| max|b| and a sign."""
    if not a or not b:
        return []
    w = _byte_bits(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
    return _int_unpack(_int_pack(a, w) * _int_pack(b, w), w)


def _int_prem(a, b):
    """Pseudo-remainder scaled so it is a *positive* multiple of rem(a, b):
    lead(b)^steps a reduced by b, each leading term met divisible by lead(b)."""
    steps = max(len(a) - len(b) + 1, 0)
    a = [c * b[-1] ** steps for c in a]
    while len(a) >= len(b):
        c, pos = a[-1] // b[-1], len(a) - len(b)
        for i, bc in enumerate(b):
            a[pos + i] -= c * bc
        _int_trim(a)
    return [-c for c in a] if b[-1] < 0 and steps % 2 else a


def _int_divide_out(a, h):
    """a over gcd(h, *a), h > 0, found while dividing: on a remainder m =
    c - q h, h shrinks to g = gcd(h, m), the quotients so far scale by h / g
    and c's quotient is q h / g + m / g.  Past `_RECIP_CUT` bits, q comes off
    one reciprocal of h per divisor (`_divexact`), not a divmod: gcd(h, m) =
    gcd(h, c) for any q, so q, exact where h divides c, sets only the speed."""
    out, qs = [], _divexact(a, h) if h.bit_length() > _RECIP_CUT else None
    for c in a:
        q, m = divmod(c, h) if qs is None else (q := next(qs), c - q * h)
        if m:
            f = h // (g := math.gcd(h, m))
            out, h, q = [x * f for x in out], g, q * f + m // g
            qs = _divexact(a[len(out) + 1 :], h) if h.bit_length() > _RECIP_CUT else None
        out.append(q)
    return out


def _int_primitive(a):
    """a divided by the gcd of its entries (sign kept), as a list."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else list(a)


def _int_pack(a, bits):
    """a at z = 2^bits, a shift per digit, except at whole-byte widths past
    `_STEP_FLOOR` bits, where a must be balanced digits, -2^(bits - 1) <=
    a_i < 2^(bits - 1): each, lifted by 2^(bits - 1), is written as bytes,
    all are read as one int, and the lift comes off, in linear time."""
    if bits % 8 or len(a) * bits <= _STEP_FLOOR:
        v = 0
        for c in reversed(a):
            v = (v << bits) + c
        return v
    b, half = bits // 8, 1 << (bits - 1)
    raw = b"".join((c + half).to_bytes(b, "little") for c in a)
    return int.from_bytes(raw, "little") - _lift(b, len(a))


def _int_unpack(v, bits):
    """The balanced base-2^bits digits of v, lowest first: a again, for
    v = _int_pack(a, bits) with every |a_i| below 2^(bits - 1): v shifted
    down digit by digit, except at whole-byte widths past `_STEP_FLOOR` bits,
    where a from_bytes per digit costs less: read through bytes, lifted as
    in `_int_respace`, in linear time."""
    half = 1 << (bits - 1)
    if bits % 8 or v.bit_length() <= _STEP_FLOOR:
        out, mask = [], (1 << bits) - 1
        while v:
            v += half
            out.append((v & mask) - half)
            v >>= bits
        return out
    b, slots = bits // 8, v.bit_length() // bits + 2
    raw = (v + _lift(b, slots)).to_bytes(slots * b, "little")
    return _int_trim([int.from_bytes(raw[i : i + b], "little") - half for i in range(0, len(raw), b)])


def _lift(b, slots, pad=0):
    """2^(8b - 1) in the low b bytes of each of slots (b + pad)-byte slots."""
    return int.from_bytes((bytes(b - 1) + b"\x80" + bytes(pad)) * slots, "little")


def _int_respace(values, bits, new_bits):
    """[_int_pack(_int_unpack(v, bits), new_bits) for v in values] in linear
    time, for whole-byte widths, new_bits >= bits: lifted by 2^(bits - 1),
    each digit moves as plain bytes, and the lift, moved too, comes off."""
    b, c = bits // 8, new_bits // 8
    slots = max(v.bit_length() for v in values) // bits + 2  # >= every value's digit count
    lift = _lift(b, slots)
    src = b"".join((v + lift).to_bytes(slots * b, "little") for v in values)
    dst = bytearray(len(src) // b * c)
    for i in range(b):
        dst[i::c] = src[i::b]
    lift = _lift(b, slots, c - b)
    return [int.from_bytes(dst[i : i + slots * c], "little") - lift for i in range(0, len(dst), slots * c)]


def _int_taylor1(a):
    """a(z + 1), as long as a: Horner at X + 1 on one int, X = 2^w, read
    back in balanced digits; w, in whole bytes, holds each |b_j| = |sum_i
    a_i C(i, j)| <= sum_i |a_i| 2^i with a sign bit."""
    w = _byte_bits(sum(abs(c) << i for i, c in enumerate(a)))
    acc = 0
    for c in reversed(a):
        acc = (acc << w) + acc + c
    out = _int_unpack(acc, w)
    return out + [0] * (len(a) - len(out))


def _int_coprime_mod(a, b, p):
    """True if Euclid over GF(p), p = 2^e - 1 prime with e >= 4, ends a, b in
    a nonzero constant.  A and B are ints with a residue per w-bit slot, w >=
    2e + 2: a step drops A's top slot t and adds c z^s (2p - B_i) below it, c
    = t / lead(B) mod p, and two masked folds x -> x mod 2^e + x div 2^e (2^e
    = 1 mod p) bring each slot from below 2^(2e + 2) back below 2^e + 8 <= 2p."""
    e = p.bit_length()
    w = -(-(2 * e + 2) // 64) * 64
    a, b = _int_trim([c % p for c in a]), _int_trim([c % p for c in b])
    ones = _int_pack([1] * max(len(a), len(b)), w)
    low, high, twice_p = ones * p, ones * ((1 << (w - e)) - 1), ones * 2 * p
    A, B, na, nb = _int_pack(a, w), _int_pack(b, w), len(a), len(b)
    while nb > 1:
        below = (1 << (w * (nb - 1))) - 1
        inv, neg = pow((B >> (w * (nb - 1))) % p, -1, p), (twice_p & below) - (B & below)
        while na >= nb:
            na -= 1
            top, A = (A >> (w * na)) % p, A & ((1 << (w * na)) - 1)
            if top:
                A += top * inv % p * neg << (w * (na - nb + 1))
                A = (A & low) + (A >> e & high)
                A = (A & low) + (A >> e & high)
        while na and not (A >> (w * (na - 1))) % p:
            na -= 1
            A &= (1 << (w * na)) - 1
        A, B, na, nb = B, A, nb, na
    return nb == 1


def _int_column(col):
    """The polynomials num/den of the (num, den) pairs in col as one column
    of `poly_mat_det`'s int form, (entries, den): int coefficient tuples
    over the lcm of the column's denominators.

    One content gcd, taken with that denominator, brings the column to
    lowest terms, so it is the column of reduced `Poly`s scaled by the lcm
    of their denominators, and its l1 sums are theirs.
    """
    den = math.lcm(*(d for _, d in col))
    col = [(a, den // d) for a, d in col]
    g = math.gcd(den, *(f * math.gcd(*a) for a, f in col))
    return tuple(tuple([c * f // g for c in a]) for a, f in col), den // g


# Per-step widths took 1.1-1.6x the time of one width below 6k bits and
# 0.5-0.9x above 9k (80 random k 4-7 gamma matrices, 2 vCPUs, Python 3.11).
_STEP_FLOOR = 8_000
# Divisor bits past which a Bareiss step writing two quotients or more, and
# a chain step's divide-out, take one reciprocal.  Per Bareiss step on the
# deep pool, nodal and a k = 10 matrix, it took 0.99-1.1x the //s' time at
# 3,700-4,400 bits and 0.63-0.94x from 4,900 (1.06-1.09x on three 4-quotient
# steps near 6,000) on 2 vCPUs, Python 3.11.  On 3.12 and 3.13 (//
# subquadratic past ~9,000 bits) the whole determinant without it took
# 0.89-0.99x the time on deep but 1.02-1.03x on nodal.  The 12 deep-pool
# chains took 0.87-0.95x the divmods' time at this cut, 0.83-0.95x at 500 to
# 3,500 bits and 0.92-1.0x at 9,000 (3 sweeps, min of 6, Python 3.11).
_RECIP_CUT = 4_500


def poly_mat_det(cols, minors: bool = False):
    """Determinant of the square polynomial matrix whose column j is cols[j]
    = (entries, den), as `_int_column` builds it: entry (i, j) is
    entries[i] / den, an int coefficient list or tuple, lowest power first
    with no trailing zeros, over the column's positive int denominator, so
    the determinant is det(M) / prod(den), M the matrix of the entries.

    Bareiss (1968) elimination on ints, entries evaluated at X = 2^B: a
    ring homomorphism, so every division, exact in Z[z], stays exact in Z,
    and one-to-one on coefficients below X/2, so a pivot is 0 exactly when
    its polynomial is, and balanced base-X digits give back what fits.  Each
    stored entry is a minor of the row-permuted M, so (Leibniz) its
    coefficients are at most the product of its rows' l1 sums R_i =
    max(1, sum_j |M_ij|_1) and that of its columns' C_j.  Step k writes the
    minors on rows 0..k, i and columns 0..k, j (i, j > k), which need
    H_k = min(R_0...R_k max_{i>k} R_i, C_0...C_k max_{j>k} C_j), growing to
    H = min(prod R, prod C); R moves with the rows, C never moves.  Where
    the packed size B (D + 1), B = H.bit_length() + 1 and D = min(sum_i
    max_j deg M_ij, sum_j max_i deg M_ij), is at most `_STEP_FLOOR`, every
    step runs at B.  Above it, step k runs at the whole bytes that hold
    H_k, and re-spaces what it reads, which fits the old width, as it widens.
    Step k divides by d, the last pivot less its power of two (its z-power),
    so odd.  Where d is longer than `_RECIP_CUT` bits and the step writes at
    least two quotients (all but the last step), one truncated reciprocal
    of d gives each within 1/16 + 1/128 < 1/2 below it, so it rounds to it
    exactly (`_divexact`); other steps take one // per quotient.

    With `minors`, the result is (det, minors) with the three that the last
    step reads, for n >= 2 (0-based): the leading (n-1)-minor, the one on
    rows 0..n-2 and columns 0..n-3, n-1, and the leading (n-2)-minor; None
    after a row swap.
    """
    n = len(cols)
    if n == 0:
        return (Poly((1,)), None) if minors else Poly((1,))
    dens, R, C, deg, row_deg = [den for _, den in cols], [0] * n, [], 0, [0] * n
    for entries, _ in cols:  # l1 sums and lengths, in one pass
        c = longest = 0
        for i, a in enumerate(entries):
            s, m = sum(map(abs, a)), len(a)
            R[i] += s
            c += s
            if m > longest:
                longest = m
            if m > row_deg[i]:
                row_deg[i] = m
        C.append(c or 1)
        deg += longest
    R = [r or 1 for r in R]
    bits = min(math.prod(R), math.prod(C)).bit_length() + 1
    steps = n > 1 and bits * (min(deg, sum(row_deg)) - n + 1) > _STEP_FLOOR
    bits = _step_bits(R, C, 0) if steps else bits
    M = [[_int_pack(a, bits) for a in row] for row in zip(*(entries for entries, _ in cols))]
    prev, sgn, swapped, sub_minors = 1, 1, False, None
    for k in range(n - 1):
        if not M[k][k]:
            i = next((i for i in range(k + 1, n) if M[i][k]), None)
            if i is None:
                return (Poly(), None) if minors else Poly()
            M[k], M[i], R[k], R[i] = M[i], M[k], R[i], R[k]
            sgn, swapped = -sgn, True
        new = _step_bits(R, C, k) if steps else bits
        if new > bits:
            prev, *flat = _int_respace([prev, *(v for row in M[k:] for v in row[k:])], bits, new)
            for i, row in enumerate(M[k:]):
                row[k:] = flat[i * (n - k) : (i + 1) * (n - k)]
            bits = new
        if minors and k == n - 2 and not swapped:
            scale, read = math.prod(dens[: n - 2]), ((M[k][k], dens[n - 2]), (M[k][n - 1], dens[n - 1]), (prev, 1))
            sub_minors = tuple(_poly(_int_unpack(v, bits), scale * f) for v, f in read)
        # the divisor's power of two (its z-power) comes off first
        tz = (prev & -prev).bit_length() - 1
        pivot, top, d = M[k][k], M[k], prev >> tz
        if k < n - 2 and d.bit_length() > _RECIP_CUT:
            qs = _divexact([(pivot * row[j] - row[k] * top[j]) >> tz for row in M[k + 1 :] for j in range(k + 1, n)], d)
            for row in M[k + 1 :]:
                row[k + 1 :] = [next(qs) for _ in range(k + 1, n)]
        else:
            for row in M[k + 1 :]:
                rk = row[k]
                for j in range(k + 1, n):
                    row[j] = ((pivot * row[j] - rk * top[j]) >> tz) // d
        prev = pivot
    det = _poly(_int_unpack(M[n - 1][n - 1], bits), sgn * math.prod(dens))
    return (det, sub_minors) if minors else det


def _divexact(xs, d):
    """x / d for x in xs, lazily: exact wherever d divides x, else its floor
    or ceiling.  With D = bits(d), Q = max bits(x) - D + 1 >= bits(x // d)
    and P = D + Q + 6, |x| cut to its top Q + 4 bits, times floor(2^P /
    |d|) over 2^P, is below |x / d| by under 1/16 + 1/128, and rounds."""
    D = d.bit_length()
    Q = max(1, max(x.bit_length() for x in xs) - D + 1)
    P = D + Q + 6
    r = (1 << P) // abs(d)
    for x in xs:
        s = max(x.bit_length() - Q - 4, 0)
        q = ((abs(x) >> s) * r + (1 << (P - s - 1))) >> (P - s)
        yield q if (x < 0) == (d < 0) else -q


def _step_bits(R, C, k):
    """Whole bytes, as bits, that hold the coefficients step k writes."""
    return _byte_bits(min(math.prod(R[: k + 1]) * max(R[k + 1 :]), math.prod(C[: k + 1]) * max(C[k + 1 :])))


def _byte_bits(h):
    """Whole bytes, as bits, that hold ints of magnitude at most h with a sign."""
    return -(-(h.bit_length() + 1) // 8) * 8


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
