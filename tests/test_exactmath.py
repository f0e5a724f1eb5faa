import math
import pickle
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlag import exactmath
from xlag.errors import NotDivisible, ZeroPolynomial
from xlag.exactmath import (
    _STEP_FLOOR,
    Poly,
    _divexact,
    _int_column,
    _int_coprime_mod,
    _int_divide_out,
    _int_mul,
    _int_pack,
    _int_prem,
    _int_primitive,
    _int_respace,
    _int_taylor1,
    _int_trim,
    _int_unpack,
    _poly,
    _step_bits,
    poly_gcd,
    poly_mat_det,
    rational_nullspace,
    remainder_chain,
    vandermonde,
)
from xlag.verify import enumerate_lattice
from xlag.wronskian import ExtensionSpec, build_gamma_matrix, compute_g

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=16)
polys = st.lists(rationals, min_size=0, max_size=7).map(Poly)
nonzero_polys = polys.filter(bool)
# ints and Fractions over mixed denominators, as coefficient lists
coeff_lists = st.lists(st.integers(-60, 60) | st.fractions(-60, 60, max_denominator=720), max_size=8)
scalars = st.integers(-12, 12) | st.fractions(-12, 12, max_denominator=30)


# -- Fraction-list reference ---------------------------------------------
#
# The plain route that Poly's integer-content form replaces: lists of
# Fractions, lowest power first, trimmed, one Fraction operation per
# coefficient.


def ref(coeffs):
    c = [F(x) for x in coeffs]
    while c and not c[-1]:
        c.pop()
    return c


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def ref_sub(a, b):
    return ref_add(a, [-c for c in b])


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_scale(a, s):
    return ref([c * s for c in a])


def ref_diff(a):
    return ref([i * c for i, c in enumerate(a)][1:])


def ref_shift_up(a, e):
    return ref([0] * e + a) if a else []


def ref_compose_neg(a):
    return ref([-c if i % 2 else c for i, c in enumerate(a)])


def compose_neg(p):
    """p(-z) by the reference substitution, for the type-I entries of the
    seed and gamma-matrix oracles: `laguerre_series(negated=True)` is the
    route they check, so they do not negate through it."""
    return Poly(ref_compose_neg(p.coeffs))


def ref_monic(a):
    return ref([c / a[-1] for c in a])


def ref_divexact_zpow(a, e):
    assert not any(a[:e])
    return ref(a[e:])


def ref_eval(a, z):
    acc = F(0)
    for c in reversed(a):
        acc = acc * z + c
    return acc


def ref_divmod(a, b):
    rem, quot = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        quot[len(rem) - len(b)] = c
        rem = ref_sub(rem, [F(0)] * (len(rem) - len(b)) + [c * x for x in b])
    return ref(quot), rem


def canonical(p):
    # int numerators over one positive int denominator, reduced and trimmed
    assert all(type(c) is int for c in p.num) and type(p.den) is int
    assert p.den > 0 and math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    return list(p.coeffs)


@given(coeff_lists, scalars)
@example([F(1, 2), F(-3, 4)], F(-2, 3))  # a negative leading coefficient
@example([0, 0], 0)  # the zero polynomial, its zeros trimmed
def test_poly_matches_the_fraction_reference(a, s):
    p = Poly(a)
    a = ref(a)
    assert canonical(p) == a
    assert canonical(p.diff()) == ref_diff(a)
    for e in range(3):
        assert canonical(p.shift_up(e)) == ref_shift_up(a, e)
        assert canonical(p.shift_up(e).divexact_zpow(e)) == ref_divexact_zpow(ref_shift_up(a, e), e)
    for z in (F(0), F(-3, 2), F(7, 5), s):
        assert p.eval(z) == ref_eval(a, z)
    if a:
        assert canonical(p.monic()) == ref_monic(a)
        assert p.leading == a[-1] and p.constant == a[0]


@given(coeff_lists)
def test_equal_polynomials_from_different_routes_compare_and_hash_equal(a):
    p = Poly(a)
    routes = [
        p,
        Poly(p.coeffs),
        _poly([6 * c for c in p.num], 6 * p.den),  # unreduced
        p.shift_up(2).divexact_zpow(2),
    ]
    for r in routes:
        canonical(r)
        assert r == p and hash(r) == hash(p)
        assert (r.num, r.den) == (p.num, p.den)


def test_non_rational_coefficient_is_rejected():
    with pytest.raises(TypeError):
        Poly((0.1,))
    with pytest.raises(TypeError, match="must be int or Fraction"):
        Poly((True, False))
    with pytest.raises(TypeError):
        Poly((1, "2"))


def test_negative_shift_is_rejected():
    with pytest.raises(ValueError):
        Poly((1, 2)).shift_up(-1)
    with pytest.raises(ValueError):
        Poly((0, 1)).divexact_zpow(-1)


def test_nullspace_of_integer_rows_stays_exact():
    basis = rational_nullspace([[2, 4], [1, 2]])
    assert basis == [[F(-2), F(1)]]
    assert all(type(v) is F for v in basis[0])


def test_diff_power_rule():
    assert Poly((0, 0, 0, 1)).diff() == Poly((0, 0, 3))
    assert not Poly((F(9, 4),)).diff()


def test_diff_rational_coefficients():
    alpha = F(3, 2)
    p = Poly((0, -(alpha + 2), F(1, 2)))  # z^2/2 - (alpha+2) z
    assert p.diff() == Poly((-F(7, 2), 1))


def test_divexact_zpow():
    p = Poly((0, 0, 2, 1))  # z^3 + 2z^2
    assert p.divexact_zpow(2) == Poly((2, 1))
    with pytest.raises(NotDivisible):
        Poly((1, 0, 1)).divexact_zpow(1)


def test_divexact_zpow_zero_poly():
    assert not Poly().divexact_zpow(3)


def pochhammer(a, n):
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1: for a = p/q
    the int p (p+q) ... (p+(n-1)q) over q^n, as one Fraction.  A float or bool
    `a` is rejected with TypeError, neither rounded nor converted.  The
    reference for the integer products that predict_const and the gamma
    matrix take inline."""
    if isinstance(a, bool) or not isinstance(a, (int, F)):
        raise TypeError(f"pochhammer argument must be int or Fraction, got {a!r}")
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    p, q = a.numerator, a.denominator
    return F(math.prod(range(p, p + n * q, q)), q**n)


def test_pochhammer_values():
    a = F(7, 3)
    assert pochhammer(a, 0) == 1
    assert pochhammer(F(3), 2) == 12
    assert pochhammer(F(-1, 2), 3) == F(-3, 8)


def ref_pochhammer(a, n):
    """The Fraction product loop that pochhammer's integer product replaces."""
    if n < 0:
        raise ValueError("pochhammer order must be nonnegative")
    out = F(1)
    for i in range(n):
        out *= a + i
    return out


@given(st.integers(-40, 40) | st.fractions(-40, 40, max_denominator=24), st.integers(0, 12))
@example(F(-3), 5)  # a zero factor
@example(F(-7, 2), 12)  # factors of both signs
def test_pochhammer_matches_the_fraction_product(a, n):
    out = pochhammer(a, n)
    assert type(out) is F
    assert out == ref_pochhammer(F(a), n)


@pytest.mark.parametrize("a", [0.1, 2.0, True])
def test_pochhammer_rejects_a_non_rational_argument(a):
    # a float is neither rounded (0.11000000000000001) nor silently
    # converted to its binary fraction, and a bool is not read as 1
    with pytest.raises(TypeError):
        pochhammer(a, 2)


def test_pochhammer_rejects_a_negative_order():
    with pytest.raises(ValueError):
        pochhammer(F(1, 2), -1)


def test_vandermonde_values():
    assert vandermonde([5]) == 1
    assert vandermonde([]) == 1
    assert vandermonde([1, 2, 3]) == 2
    assert vandermonde([1, 3]) == 2


def test_eval():
    assert Poly((F(5, 2), 1)).eval(0) == F(5, 2)
    assert Poly((-1, 0, 1)).eval(1) == 0
    assert Poly((F(-1, 8), F(-1, 2), F(1, 2))).eval(2) == F(7, 8)


@pytest.mark.parametrize("z", [0.1, True, 1.0, "1/10"])
def test_eval_refuses_a_float_or_bool_point(z):
    # the float 0.1 is 0.1000000000000000055..., so 10z - 1 read 2^-54, not 0
    with pytest.raises(TypeError, match="int or Fraction"):
        Poly((-1, 10)).eval(z)
    assert Poly((-1, 10)).eval(F(1, 10)) == 0


def test_degree_sentinel():
    assert Poly().degree is None
    assert Poly((4,)).degree == 0
    assert Poly((0, 0, 1)).degree == 2


def test_a_poly_never_equals_a_scalar():
    # equal objects must hash alike, and Poly((3,)) does not hash like 3
    assert Poly((3,)) != 3
    assert Poly((F(1, 2),)) != F(1, 2)
    assert Poly() != 0
    assert len({Poly((3,)), 3}) == 2


def test_poly_is_immutable():
    p = Poly((1, 2))
    for name, value in (("num", (5,)), ("den", 3), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert (p.num, p.den) == ((1, 2), 1)


def test_the_zero_polynomial_has_no_monic_form():
    with pytest.raises(ZeroPolynomial):
        Poly().monic()


@given(rationals, st.integers(min_value=0, max_value=20))
def test_pochhammer_recurrence(a, n):
    assert pochhammer(a, n) * (a + n) == pochhammer(a, n + 1)


@given(polys, st.integers(min_value=0, max_value=6))
def test_divexact_zpow_round_trip(p, e):
    assert p.shift_up(e).divexact_zpow(e) == p


@given(st.lists(st.integers(min_value=-30, max_value=30), min_size=2, max_size=6, unique=True))
def test_vandermonde_increasing_positive(ns):
    assert vandermonde(sorted(ns)) > 0


@given(nonzero_polys, nonzero_polys)
@settings(deadline=None)
def test_gcd_divides_both(p, q):
    g = list(poly_gcd(p, q).coeffs)
    assert ref_divmod(list(p.coeffs), g)[1] == []
    assert ref_divmod(list(q.coeffs), g)[1] == []


def test_squarefree_part_collapses_multiplicity():
    # the chain of p = (z - 1)^2 (z + 2) and p' ends in the repeated factor;
    # p over it, (z - 1)(z + 2), is square-free
    p = Poly((2, -3, 0, 1))
    last = remainder_chain(p, p.diff())[-1]
    assert last.monic() == Poly((-1, 1))
    quo = [c * p.leading / last.leading for c in (-2, 1, 1)]
    assert ref_divmod(list(p.coeffs), list(last.coeffs)) == (quo, [])
    assert poly_gcd(p, p.diff()) == Poly((-1, 1))


# -- the remainder chain against its plain route ------------------------
#
# The chain as it ran before the one-pass normal step and the predicted
# divisor: every step a pseudo-remainder by `_int_prem`, made primitive by
# a full gcd.  The chain must equal it member by member.


def ref_remainder_chain(a, b):
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


@st.composite
def chain_inputs(draw):
    """a with squared and cubed factors and an int content; b its
    derivative, a perturbed derivative, or any int polynomial (of degree
    at least a's, zero, or constant)."""
    a = [draw(st.integers(-6, 6).filter(bool))]
    for f in draw(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any), max_size=3)):
        for _ in range(draw(st.integers(1, 3))):
            a = ref_int_mul(a, f)
    a, other = Poly(a), draw(st.lists(st.integers(-30, 30), max_size=12))
    b = draw(st.sampled_from((a.diff(), Poly(ref_int_add(list(a.diff().num), other)), Poly(other))))
    return a, b


@given(chain_inputs())
@settings(deadline=None)
@example((Poly((-3, -3, -2, 3)), Poly((-3, -4, 9))))  # the divisor shrinks
@example((Poly((2, 0, 1)), Poly()))  # zero b
@example((Poly((5,)), Poly((1, 2, 3))))  # constant a, deg b above deg a
@example((Poly((3, 13, 22, 18, 7, 1)), Poly((4, 0, 0, 1))))  # a = (z + 1)^4 (z + 3), b not a'
def test_remainder_chain_matches_the_plain_route(ab):
    a, b = ab
    assert remainder_chain(a, b) == ref_remainder_chain(a, b)


def test_the_predicted_divisor_shrinks_where_it_misses():
    # a = 3z^3 - 2z^2 - 3z - 3, b = a': the normal step's R is 261 + 186z,
    # h = lc(a)^2 = 9 divides 261 but not 186, so h shrinks to 3 and the
    # quotient 29 already taken is scaled by 9/3
    assert _int_divide_out([261, 186], 9) == [87, 62]
    assert _int_divide_out([8, 12, 6], 4) == [4, 6, 3]
    assert _int_divide_out([0, -14, 0], 4) == [0, -7, 0]
    a = Poly((-3, -3, -2, 3))
    assert remainder_chain(a, a.diff())[2] == Poly((87, 62))


def test_remainder_chain_matches_the_plain_route_on_the_benchmark_lattice():
    # every g of perfbench's `lattice` workload
    for spec in enumerate_lattice(max_k=4, max_m=4, alpha_steps=2):
        g = compute_g(spec).g
        assert remainder_chain(g, g.diff()) == ref_remainder_chain(g, g.diff()), spec


@pytest.mark.parametrize(
    "m_i, m_ii, alpha",
    [
        ((15,), (1, 3, 5, 6, 15), F(23, 2)),  # k = 6, deg 40
        ((6, 8), (4, 5, 7, 12, 15), 13),  # k = 7, deg 56
        ((3, 10, 12, 15), (1, 2, 3, 18), F(37, 2)),  # k = 8, deg 68: the divisor misses at 37 of 67 steps
    ],
)
def test_remainder_chain_matches_the_plain_route_on_deep_specs(m_i, m_ii, alpha):
    g = compute_g(ExtensionSpec(alpha, 1, m_i, m_ii)).g
    chain = remainder_chain(g, g.diff())
    assert chain == ref_remainder_chain(g, g.diff())
    assert len(chain) == g.degree + 1


def _det_cofactor(m):
    """The determinant of a square Poly matrix by Laplace expansion on its
    int form, each product the schoolbook `ref_int_mul`: the independent
    oracle of every determinant route."""
    rows, dens = rows_and_dens(columns(m))
    return _poly(ref_int_cofactor(rows), math.prod(dens))


def ref_int_cofactor(rows):
    # Laplace expansion along the first row of a square matrix of int lists
    if not rows:
        return [1]
    out = []
    for j, a in enumerate(rows[0]):
        term = ref_int_mul(a, ref_int_cofactor([row[:j] + row[j + 1 :] for row in rows[1:]]))
        out = ref_int_add(out, term if j % 2 == 0 else [-c for c in term])
    return out


def columns(matrix):
    """poly_mat_det's columns of a square matrix of Poly, scaled as the
    elimination scaled it when it took Polys: each column (entries, den)
    over the lcm of its entries' denominators, with int tuple entries, as
    `_int_column` spells it."""
    out = []
    for col in zip(*matrix):
        den = math.lcm(*(e.den for e in col))
        out.append((tuple(tuple(c * (den // e.den) for c in e.num) for e in col), den))
    return out


def rows_and_dens(cols):
    """The entries of poly_mat_det's columns in new row lists, and their
    denominators: the row form the oracles eliminate on."""
    return [list(row) for row in zip(*(entries for entries, _ in cols))], [den for _, den in cols]


def cycle_rows(cols):
    """The columns with rows 0, 1, 2 of their matrix reordered as 2, 0, 1:
    entries 0, 1 and 2 permuted within every column."""
    return [((e[2], e[0], e[1], *e[3:]), den) for e, den in cols]


@given(
    st.lists(st.lists(rationals, max_size=4).map(Poly), min_size=9, max_size=9),
    st.lists(st.integers(1, 36), min_size=9, max_size=9),
)
@example([Poly()] * 9, [6] * 9)
def test_int_columns_reduce_unreduced_entries_to_the_poly_columns(entries, scales):
    # each entry handed over as num * s / den * s: one gcd per column must
    # give back the columns of the reduced Polys
    m = [entries[3 * i : 3 * i + 3] for i in range(3)]
    pairs = [([c * s for c in e.num], e.den * s) for e, s in zip(entries, scales)]
    assert [_int_column(pairs[j::3]) for j in range(3)] == columns(m)


def ref_int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_int_add(*terms):
    """The sum of int lists, lowest power first, trimmed."""
    out = [0] * max(map(len, terms))
    for a in terms:
        for i, c in enumerate(a):
            out[i] += c
    return _int_trim(out)


def ref_int_diff(a):
    return [i * c for i, c in enumerate(a) if i]


def ref_int_divexact(a, b):
    # a / b in Z[z], b dividing a: quotient digits from the top
    a, quot = list(a), [0] * (len(a) - len(b) + 1)
    for pos in range(len(quot) - 1, -1, -1):
        quot[pos] = a[pos + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[pos + i] -= quot[pos] * c
    assert not any(a)
    return quot


def ref_bareiss(cols, minors):
    """`poly_mat_det` on the coefficient lists, in row form: every product
    and exact division in Z[z], with no packing and so no bound to get
    wrong.  The oracle of both packed schedules."""
    M, dens = rows_and_dens(cols)
    n = len(M)
    if n == 0:
        return (Poly((1,)), None) if minors else Poly((1,))
    prev, sgn, swapped, sub_minors = [1], 1, False, None
    for k in range(n - 1):
        if not M[k][k]:
            i = next((i for i in range(k + 1, n) if M[i][k]), None)
            if i is None:
                return (Poly(), None) if minors else Poly()
            M[k], M[i], sgn, swapped = M[i], M[k], -sgn, True
        if minors and k == n - 2 and not swapped:
            scale = math.prod(dens[: n - 2])
            sub_minors = (
                _poly(list(M[k][k]), scale * dens[n - 2]),
                _poly(list(M[k][n - 1]), scale * dens[n - 1]),
                _poly(list(prev), scale),
            )
        for row in M[k + 1 :]:
            for j in range(k + 1, n):
                a, b = ref_int_mul(M[k][k], row[j]), ref_int_mul(row[k], M[k][j])
                num = [x - y for x, y in zip(a + [0] * len(b), b + [0] * len(a))]
                while num and not num[-1]:
                    num.pop()
                row[j] = ref_int_divexact(num, prev) if num else []
        prev = M[k][k]
    det = _poly(list(M[n - 1][n - 1]), sgn * math.prod(dens))
    return (det, sub_minors) if minors else det


def forced(floor, cut):
    """poly_mat_det with its width floor and reciprocal cut set to these."""

    def det(cols, minors):
        with mock.patch.object(exactmath, "_STEP_FLOOR", floor), mock.patch.object(exactmath, "_RECIP_CUT", cut):
            return poly_mat_det(cols, minors)

    return det


single_width, per_step, reciprocal = forced(math.inf, math.inf), forced(-math.inf, math.inf), forced(-math.inf, 0)


# the determinant at any size: the floor forces the packed ints at one
# width (inf) or at the per-step widths (-inf), the cut a // per quotient
# (inf) or one reciprocal per step (0), and the coefficient lists are the
# oracle of all three
ROUTES = pytest.mark.parametrize(
    "det",
    [single_width, per_step, reciprocal, ref_bareiss],
    ids=["integer", "per-step", "reciprocal", "polynomial"],
)


@ROUTES
@given(st.lists(st.lists(rationals, min_size=2, max_size=2).map(Poly), min_size=9, max_size=9))
@settings(deadline=None, max_examples=25)
def test_bareiss_matches_cofactor_expansion(det, entries):
    m = [entries[3 * i : 3 * i + 3] for i in range(3)]
    assert det(columns(m), False) == _det_cofactor(m)


@ROUTES
@given(st.lists(st.lists(rationals, min_size=2, max_size=2).map(Poly), min_size=16, max_size=16))
@settings(deadline=None, max_examples=25)
@example([Poly((c,)) for c in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 7)])
def test_bareiss_minors_match_cofactor_expansion(det, entries):
    m = [entries[4 * i : 4 * i + 4] for i in range(4)]
    d, minors = det(columns(m), True)
    assert d == _det_cofactor(m)
    if not m[0][0]:
        assert minors is None  # a row swap was needed
    if minors is not None:
        assert minors == (
            _det_cofactor([row[:3] for row in m[:3]]),
            _det_cofactor([row[:2] + row[3:] for row in m[:3]]),
            _det_cofactor([row[:2] for row in m[:2]]),
        )


@ROUTES
def test_both_routes_on_the_small_cases(det):
    a, b, c, d = Poly((1, 2)), Poly((F(1, 3),)), Poly((0, 5)), Poly((F(-1, 2), 1))
    assert det([], True) == (Poly((1,)), None)
    assert det(columns([[c]]), True) == (c, None)
    assert det(columns([[Poly()]]), False) == Poly()
    assert not det(columns([[a, b], [a, b]]), False)
    assert det(columns([[Poly(), b], [c, d]]), True) == (Poly((0, F(-5, 3))), None)  # a swap
    assert det(columns([[Poly((-1,)), b], [Poly(), d]]), True) == (Poly((F(1, 2), -1)), (Poly((-1,)), b, Poly((1,))))
    assert det(columns([[a, b, c], [Poly(), Poly(), Poly()], [d, a, b]]), False) == Poly()
    # a zero row makes the row product 0, but the minors above it still read back
    assert det(columns([[a, b], [Poly(), Poly()]]), True) == (Poly(), (a, b, Poly((1,))))


def _sums(cols):
    # the row and the column l1 sums, at least 1, that poly_mat_det bounds by
    norms = [[sum(map(abs, a)) for a in entries] for entries, _ in cols]
    return tuple([max(1, sum(v)) for v in vs] for vs in (zip(*norms), norms))


def _side_bounds(cols):
    # the row and the column product that poly_mat_det takes the smaller of
    return tuple(map(math.prod, _sums(cols)))


@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any).map(Poly), min_size=9, max_size=9),
    st.integers(0, 2),
    st.integers(10, 120),
    st.integers(0, 6),
)
@settings(deadline=None, max_examples=40)
@example([Poly((c,)) for c in (1, 1, -1, 1, -1, 1, -1, 1, 1)], 0, 10, 0)  # |det| = 4 prod_j max_i |M_ij|
def test_lopsided_matrices_pack_by_their_lighter_side(entries, heavy, e, d):
    # one row, then one column, scaled by 2^e z^d: the row product sets B for
    # the heavy row and the column product for the heavy column, and the
    # transposes swap the two; every route and the Laplace expansion agree
    m = [entries[3 * i : 3 * i + 3] for i in range(3)]

    def scaled(a):
        return _poly([0] * d + [c * 2**e for c in a.num], a.den)

    heavy_row = [[scaled(a) if i == heavy else a for a in row] for i, row in enumerate(m)]
    heavy_col = [[scaled(a) if j == heavy else a for j, a in enumerate(row)] for row in m]
    heavy_row_t, heavy_col_t = ([list(c) for c in zip(*h)] for h in (heavy_row, heavy_col))
    for matrix, row_side in ((heavy_row, True), (heavy_col, False), (heavy_row_t, False), (heavy_col_t, True)):
        cols = columns(matrix)
        by_rows, by_cols = _side_bounds(cols)
        assert (by_rows < by_cols) == row_side
        packed = single_width(cols, True)
        assert packed == per_step(cols, True) == ref_bareiss(cols, True)
        assert packed[0] == _det_cofactor(matrix)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_packing_bound_holds_at_equality(sign):
    # det = sign * H exactly, with H a power of two: one bit less of B would
    # read +H back as -H
    diag = [Poly((0, sign * 2**3)), Poly((0, 0, -(2**5))), Poly((-(2**7),))]
    m = [[diag[i] if i == j else Poly() for j in range(3)] for i in range(3)]
    for det in (single_width, per_step):
        assert det(columns(m), False) == Poly((0, 0, 0, sign * 2**15))
        assert det(columns([[Poly((sign * 2**200,))]]), False) == Poly((sign * 2**200,))
    assert poly_mat_det(columns([[Poly((sign * 2**200,))]])) == Poly((sign * 2**200,))


@pytest.mark.parametrize("sign", [1, -1])
def test_a_step_minor_at_its_bound_survives_the_re_spacing(sign):
    # step 0 writes the 2-minor sign 2^7 2^8 z^3, whose coefficient is H_0
    # = R_0 max(R_1, R_2) = 2^15 exactly: with a sign bit that takes 3
    # bytes, and at 2 it would read back as -2^15.  Step 1 widens to 4
    # bytes, so the minor is re-spaced from 3.
    diag = [Poly((0, sign * 2**7)), Poly((0, 0, 2**8)), Poly((2**8,))]
    cols = columns([[diag[i] if i == j else Poly() for j in range(3)] for i in range(3)])
    R, C = _sums(cols)
    assert math.prod(R[:1]) * max(R[1:]) == 2**15
    assert _step_bits(R, C, 0) == 24 and _step_bits(R, C, 1) == 32
    assert _int_unpack(_int_pack([0, 0, 0, 2**15], 16), 16) != [0, 0, 0, 2**15]
    assert per_step(cols, True) == ref_bareiss(cols, True)
    assert per_step(cols, False) == Poly((0, 0, 0, sign * 2**23))


def test_the_rows_bound_one_step_and_the_columns_the_next():
    # row sums 1, h + 1, h + 1 and column sums 2, 2h, 1: step 0 is bounded
    # by the rows (h + 1 < 4h), step 1 by the columns (4h < (h + 1)^2), and
    # the width still never narrows
    h = 2**40
    m = [[Poly((0, 1)), Poly(), Poly()], [Poly((1,)), Poly((0, 0, h)), Poly()], [Poly(), Poly((h,)), Poly((0, 1))]]
    cols = columns(m)
    R, C = _sums(cols)
    assert R[0] * max(R[1:]) < C[0] * max(C[1:]) and math.prod(C) < math.prod(R)
    assert _step_bits(R, C, 0) <= _step_bits(R, C, 1)
    for minors in (False, True):
        assert per_step(cols, minors) == single_width(cols, minors) == ref_bareiss(cols, minors)


@pytest.mark.parametrize("zero_row", [0, 1, 3])
def test_a_zero_row_never_lowers_the_row_bound(zero_row):
    # a zero row's l1 sum is 0, so the raw row bound falls to 0 at the step
    # that takes it in, where every minor written is 0; taken as 1 it never
    # falls, and the minors above the zero row, which the last step reads
    # back when it is row 3, come out right
    m = [[Poly((1, 200)), Poly((300,)), Poly((0, 500)), Poly((700,))],
         [Poly((200,)), Poly((0, 0, 900)), Poly((1,)), Poly((400, 400))],
         [Poly((0, 1100)), Poly((600,)), Poly((200, 0, 300)), Poly((1,))],
         [Poly((500,)), Poly((1, 100)), Poly((800,)), Poly((0, 200))]]
    m[zero_row] = [Poly()] * 4
    cols = columns(m)
    for minors in (False, True):
        assert per_step(cols, minors) == ref_bareiss(cols, minors)
    assert per_step(cols, True)[0] == Poly()


@given(st.lists(st.integers(1, 2**40), min_size=2, max_size=8), st.data())
def test_the_step_widths_never_narrow(R, data):
    # R_k max_{i>k} R_i <= R_k R_{k+1} max_{i>k+1} R_i for sums >= 1, on
    # either side, so the widths never narrow, and the last one holds the
    # bound of the whole determinant
    C = data.draw(st.lists(st.integers(1, 2**40), min_size=len(R), max_size=len(R)))
    widths = [_step_bits(R, C, k) for k in range(len(R) - 1)]
    assert widths == sorted(widths)
    assert widths[-1] == -(-(min(math.prod(R), math.prod(C)).bit_length() + 1) // 8) * 8


@given(
    st.integers(1, 40_000),
    st.lists(st.tuples(st.integers(0, 40_000), st.booleans()), min_size=1, max_size=6),
    st.booleans(),
    st.integers(0, 2**32),
)
@settings(deadline=None)
@example(1, [(3000, False), (5, True)], False, 0)  # d = 1
@example(4000, [(0, False), (0, True)], True, 0)  # every x = 0
@example(40_000, [(40_000, True), (1, False), (0, False)], True, 0)  # the widest, and q = 0, 1 beside it
def test_one_reciprocal_gives_each_exact_quotient(d_bits, quotients, negative_d, seed):
    # an odd d of d_bits bits and its multiples q d, q of the given bit
    # lengths and signs (0 bits: x = 0), their bits drawn from the seed
    rnd = random.Random(seed)
    d = (rnd.getrandbits(d_bits) | 1 | 1 << (d_bits - 1)) * (-1 if negative_d else 1)
    xs = [(-1 if neg else 1) * rnd.getrandbits(q_bits) * d for q_bits, neg in quotients]
    assert _divexact(xs, d) == [x // d for x in xs]


def test_the_reciprocal_holds_at_its_rounding_bound():
    # d = 2^(D-1) + 1, the least odd d of D bits, and q = 2^Q' - 1: where
    # |x| is cut, at s = bits(x) - Q - 4 bits, the cut bits are all ones, so
    # x / d is missed by nearly 1/16, the most the bound allows.  q = 1 and
    # q = 0 stand beside it; with Q' >= D - 4, x = d has at most Q + 4 bits
    # and nothing is cut.
    sides = set()
    for d_bits in (6, 100, 4001, 40_000):
        for q_bits in (1, 5, 100, d_bits - 4, 40_000):
            d = (1 << (d_bits - 1)) + 1
            qs = [(1 << q_bits) - 1, -((1 << q_bits) - 1), 1, 0]
            xs = [q * d for q in qs]
            Q = max(x.bit_length() for x in xs) - d_bits + 1
            sides |= {x.bit_length() > Q + 4 for x in xs[:3]}
            assert _divexact(xs, d) == qs
            assert _divexact(xs, -d) == [-q for q in qs]
    assert sides == {True, False}


def test_a_row_swap_above_the_floor_widens_by_the_permuted_rows():
    # step 1 finds a zero pivot and swaps in row 2, whose sum 2^20 then
    # bounds the 3-minor 2^32 z it writes.  By the rows before the swap,
    # 1 * 1 * 2^20, step 1 would run at 3 bytes and the minor, re-spaced for
    # step 2, would read back wrong.
    m = [[Poly((c,)) for c in row] for row in ([1, 0, 0, 0], [0, 0, 0, 1], [0, 2**20, 0, 0], [0, 0, 0, 0])]
    m[3][2] = Poly((0, 2**12))
    cols = columns(m)
    assert per_step(cols, True) == ref_bareiss(cols, True) == (Poly((0, 2**32)), None)
    # and a gamma matrix above the floor with its rows cycled, at the floor
    # poly_mat_det itself uses
    cycled = cycle_rows(build_gamma_matrix(ExtensionSpec(F(5, 2), 1, (6, 8, 10, 12), (7, 9, 11, 13))))
    assert _packed_size(cycled) > _STEP_FLOOR
    assert poly_mat_det(cycled, True) == ref_bareiss(cycled, True)


def _packed_size(cols):
    # B (D + 1), as poly_mat_det's docstring defines it: H and D each the
    # smaller of the row and the column figure
    norms = [[sum(map(abs, e)) for e in entries] for entries, _ in cols]
    lens = [[len(e) for e in entries] for entries, _ in cols]
    h = min(math.prod(max(1, sum(v)) for v in vs) for vs in (norms, zip(*norms)))
    d = min(sum(max(v) for v in vs) for vs in (lens, zip(*lens)))
    return (h.bit_length() + 1) * (d - len(cols) + 1)


def ref_int_unpack(v, bits):
    """_int_unpack by shifting v down one digit at a time, at any width:
    quadratic in the digit count, the oracle for its byte route."""
    out, half, mask = [], 1 << (bits - 1), (1 << bits) - 1
    while v:
        v += half
        out.append((v & mask) - half)
        v >>= bits
    return out


# whole-byte widths up to 1720 bits, with values on both sides of _STEP_FLOOR
digits_at_any_width = st.one_of(st.integers(2, 80), st.sampled_from([8, 16, 24, 64, 1720])).flatmap(
    lambda bits: st.tuples(
        st.just(bits), st.lists(st.integers(-(2 ** (bits - 1)), 2 ** (bits - 1) - 1), max_size=12)
    )
)


@given(digits_at_any_width)
@example((8, [-128, 127, 0, -128] * 600))  # digits at -X/2 and X/2 - 1, through bytes
@example((16, [-(2**15)] + [0] * 600 + [5, 0, 0]))  # trailing zero digits are not read back
@example((1720, [1] + [0] * 10 + [-(2**1719)]))  # a negative value, through bytes
@example((9, [-256, 255, -1]))  # the shift loop's widths
def test_unpack_reads_balanced_digits_back_as_the_shift_loop_does(case):
    bits, digits = case
    v = _int_pack(digits, bits)
    trimmed = list(digits)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert _int_unpack(v, bits) == ref_int_unpack(v, bits) == trimmed


balanced_digits = st.integers(1, 4).flatmap(
    lambda b: st.tuples(
        st.just(8 * b),
        st.integers(0, 3).map(lambda extra: 8 * (b + extra)),
        st.lists(st.lists(st.integers(-(2 ** (8 * b - 1)) + 1, 2 ** (8 * b - 1) - 1), max_size=6), max_size=4),
    )
)


@given(balanced_digits)
@example((8, 16, [[5, -3, 0, -1]]))  # a negative top digit
@example((8, 24, [[0, 0, 7], [], [0]]))  # zero digits, and zero values
@example((16, 24, [[-(2**15) + 1]]))  # a single slot at -(X/2 - 1)
@example((8, 16, [[127, -127, 127, -127], [-127, 127]]))  # digits at +-(X/2 - 1)
def test_re_spacing_matches_unpack_and_repack(case):
    bits, new_bits, digit_lists = case
    values = [_int_pack(a, bits) for a in digit_lists] or [0]
    spaced = _int_respace(values, bits, new_bits)
    assert spaced == [_int_pack(_int_unpack(v, bits), new_bits) for v in values]
    assert [_int_unpack(v, new_bits) for v in spaced] == [_int_unpack(v, bits) for v in values]


@given(digits_at_any_width)
@example((8, [-128, 127, 0, -128] * 600))  # digits at -X/2 and X/2 - 1, through bytes
@example((1720, [2**1719 - 1] * 5 + [-(2**1719)]))  # past the floor in a few wide digits
@example((128, [0] * 63 + [1]))  # 8,192 bits: just past the floor
@example((128, [0] * 62 + [1]))  # 8,064 bits: the shift loop
def test_pack_writes_balanced_digits_as_the_shift_loop_does(case):
    bits, digits = case
    v = 0
    for c in reversed(digits):
        v = (v << bits) + c
    assert _int_pack(digits, bits) == v


def ref_taylor1(a):
    """a(z + 1), by the O(n^2) repeated synthetic division: the list
    routine the packed Horner replaced, its oracle."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def ref_coprime_mod(a, b, p):
    """True if Euclid over GF(p), p any prime, ends a, b in a nonzero
    constant: the list routine the packed Euclid replaced, its oracle."""
    a, b = _int_trim([c % p for c in a]), _int_trim([c % p for c in b])
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        while len(a) >= len(b):
            k, la = len(a) - len(b), a[-1]
            a = a[:k] + [(x - la * y) % p for x, y in zip(a[k:-1], b)]
        a, b = b, _int_trim(a)
    return len(b) == 1


# int coefficient lists from a few bits to well past the byte routes' floor
wide_ints = st.sampled_from([3, 40, 300, 1200]).flatmap(
    lambda bits: st.lists(st.integers(-(2**bits), 2**bits), min_size=1, max_size=40)
)
topped_ints = wide_ints.filter(lambda a: a[-1])


@given(topped_ints, topped_ints)
@example([7], [3, 0, -2])  # a single coefficient, packed as any other
@example([-(2**38)] * 4, [2**38] * 4)  # the middle coefficient is -h = -2^78, at w = 80
@example([2**38] * 4, [2**38] * 4)  # and +h
@example([1, 0, 0, 5], [0, 0, 1])  # zero digits inside either factor
def test_the_packed_product_is_the_list_product(a, b):
    assert _int_mul(a, b) == _int_trim(ref_int_mul(a, b))


def test_the_nodal_g_squared_and_g_prime_squared_are_the_list_products(monkeypatch):
    # deg 80 with 272-bit coefficients: g^2 and g'^2 pack and unpack past
    # the floor at whole bytes, so both byte routes run
    g = compute_g(ExtensionSpec(F(5, 2), 1, (6, 8, 10, 12), (7, 9, 11, 13))).g
    routes = []
    for name in ("_int_pack", "_int_unpack"):
        kernel = getattr(exactmath, name)

        def spy(a, bits, kernel=kernel, name=name):
            size = len(a) * bits if name == "_int_pack" else a.bit_length()
            routes.append((name, size > _STEP_FLOOR and not bits % 8))
            return kernel(a, bits)

        monkeypatch.setattr(exactmath, name, spy)
    gd = g.diff()
    assert _int_mul(g.num, g.num) == ref_int_mul(g.num, g.num)
    assert _int_mul(gd.num, gd.num) == ref_int_mul(gd.num, gd.num)
    assert routes.count(("_int_pack", True)) == 4 and routes.count(("_int_unpack", True)) == 2


@given(wide_ints | st.lists(st.integers(-9, 9), max_size=12))
@example([5])  # a single coefficient is its own shift
@example([3, -1, 0])  # ends in 0: a(z + 1) = 2 - z + 0 z^2 keeps its length
@example([0, 0])  # zero, as long as it came
@example([127])  # b_0 = 127 at the bound, which fills w = 8 to its sign bit
@example([-(2**63 - 1)])  # and -(2^63 - 1) at w = 64
@example([0] * 40 + [2**300])  # b_j = 2^300 C(40, j), under the bound 2^340
def test_the_packed_taylor_shift_is_the_list_one(a):
    assert _int_taylor1(a) == ref_taylor1(a)


@given(
    st.lists(st.integers(-(2**70), 2**70), max_size=14),
    st.lists(st.integers(-(2**70), 2**70), max_size=14),
    st.lists(st.integers(-3, 3), max_size=4),
    st.sampled_from([2**61 - 1, 31, 127, 8191]),
)
@example([-1] * 9, [-1] * 5, [], 2**61 - 1)  # every residue p - 1, at the slot bound
@example([2, -1, -1], [-1, 1], [], 2**61 - 1)  # b = z - 1 divides a = (z - 1)(-z - 2)
@example([2, -1, -1], [3], [], 2**61 - 1)  # a constant b divides everything
@example([31, 62, 93], [1, 1], [], 31)  # a = 0 mod p: the gcd is b
@example([31, 62, 93], [4], [], 31)  # and a constant b
@example([1, 2, 1], [3, 1], [5, 1, 1], 2**61 - 1)  # a planted common factor
@example([2, 1], [1, 1], [127, 127], 127)  # a factor 0 mod p zeroes both: gcd(0, 0)
def test_the_packed_gcd_mod_p_is_the_list_one(a, b, factor, p):
    if factor:
        a, b = ref_int_mul(a, factor), ref_int_mul(b, factor)
    assert _int_coprime_mod(a, b, p) == ref_coprime_mod(a, b, p)


def test_minors_of_a_2x2_and_a_swap():
    a, b, c, d = Poly((1, 2)), Poly((F(1, 3),)), Poly((0, 5)), Poly((F(-1, 2), 1))
    # ad - bc = -1/2 - 5/3 z + 2 z^2
    assert poly_mat_det(columns([[a, b], [c, d]]), minors=True) == (Poly((F(-1, 2), F(-5, 3), 2)), (a, b, Poly((1,))))
    # a zero (1,1) entry: the determinant still comes back, the minors do not
    zero = Poly()
    assert poly_mat_det(columns([[zero, b], [c, d]]), minors=True) == (Poly((0, F(-5, 3))), None)


def test_poly_pickles():
    for p in (Poly(), Poly((1, 2)), Poly((F(-3, 4), 0, F(5, 6)))):
        back = pickle.loads(pickle.dumps(p))
        assert back == p and (back.num, back.den) == (p.num, p.den)


def test_det_of_empty_and_singular():
    assert poly_mat_det([]) == Poly((1,))
    row = [Poly((1, 2)), Poly((3, 4))]
    assert not poly_mat_det(columns([row, row]))
