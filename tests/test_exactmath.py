import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlag.errors import NotDivisible, ZeroPolynomial
from xlag.exactmath import (
    Poly,
    pochhammer,
    poly_gcd,
    poly_mat_det,
    rational_nullspace,
    remainder_chain,
    vandermonde,
)

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


@given(coeff_lists, coeff_lists, scalars)
@example([F(1, 2), F(-3, 4)], [F(5, 6), 0, F(-7, 9)], F(-2, 3))  # negative leading coefficients
@example([], [0, 0], 0)  # zero polynomials
def test_poly_matches_the_fraction_reference(a, b, s):
    p, q = Poly(a), Poly(b)
    a, b = ref(a), ref(b)
    assert canonical(p) == a
    assert canonical(p + q) == ref_add(a, b)
    assert canonical(p - q) == ref_sub(a, b)
    assert canonical(-p) == ref_scale(a, -1)
    assert canonical(p * q) == ref_mul(a, b)
    assert canonical(p * s) == canonical(s * p) == ref_scale(a, s)
    assert canonical(p.diff()) == ref_diff(a)
    assert canonical(p.compose_neg()) == ref_compose_neg(a)
    for e in range(3):
        assert canonical(p.shift_up(e)) == ref_shift_up(a, e)
        assert canonical(p.shift_up(e).divexact_zpow(e)) == ref_divexact_zpow(ref_shift_up(a, e), e)
    for z in (F(0), F(-3, 2), F(7, 5), s):
        assert p.eval(z) == ref_eval(a, z)
    if a:
        assert canonical(p.monic()) == ref_monic(a)
        assert p.leading == a[-1] and p.constant == a[0]


@given(coeff_lists, coeff_lists, scalars.filter(bool))
def test_equal_polynomials_from_different_routes_compare_and_hash_equal(a, b, s):
    p, q = Poly(a), Poly(b)
    routes = [
        p,
        Poly(p.coeffs),
        (p + q) - q,
        p * s * (1 / F(s)),
        p.shift_up(2).divexact_zpow(2),
        p.compose_neg().compose_neg(),
        p * Poly((1,)),
    ]
    for r in routes:
        canonical(r)
        assert r == p and hash(r) == hash(p)
        assert (r.num, r.den) == (p.num, p.den)


def test_non_rational_coefficient_is_rejected():
    with pytest.raises(TypeError):
        Poly((0.1,))
    with pytest.raises(TypeError):
        Poly((1, "2"))
    with pytest.raises(TypeError):
        Poly((1,)) + "x"


def test_negative_shift_is_rejected():
    with pytest.raises(ValueError):
        Poly((1, 2)).shift_up(-1)
    with pytest.raises(ValueError):
        Poly((0, 1)).divexact_zpow(-1)


def test_nullspace_of_integer_rows_stays_exact():
    basis = rational_nullspace([[2, 4], [1, 2]])
    assert basis == [[F(-2), F(1)]]
    assert all(type(v) is F for v in basis[0])


def test_difference_of_squares():
    assert Poly((1, 1)) * Poly((-1, 1)) == Poly((-1, 0, 1))


def test_additive_identity():
    p = Poly((F(1, 2), 3, F(-7, 5)))
    assert p + Poly() == p


def test_hand_convolution():
    # (2z+3) * z^2 = 2z^3 + 3z^2
    assert Poly((3, 2)) * Poly((0, 0, 1)) == Poly((0, 0, 3, 2))


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


@pytest.mark.parametrize("a", [0.1, 2.0])
def test_pochhammer_rejects_a_non_rational_argument(a):
    # a float is neither rounded (0.11000000000000001) nor silently
    # converted to its binary fraction
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


@given(nonzero_polys, nonzero_polys)
def test_degree_of_product(p, q):
    assert (p * q).degree == p.degree + q.degree


@given(polys, polys)
def test_product_rule(p, q):
    assert (p * q).diff() == p.diff() * q + p * q.diff()


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
    # the chain of p and p' ends in the repeated factor; p over it is square-free
    p = Poly((-1, 1)) * Poly((-1, 1)) * Poly((2, 1))
    last = remainder_chain(p, p.diff())[-1]
    assert last.monic() == Poly((-1, 1))
    quo = Poly((-2, 1, 1)) * (p.leading / last.leading)
    assert ref_divmod(list(p.coeffs), list(last.coeffs)) == (list(quo.coeffs), [])
    assert poly_gcd(p, p.diff()) == Poly((-1, 1))


def _det_cofactor(m):
    # independent oracle: Laplace expansion
    n = len(m)
    if n == 0:
        return Poly((1,))
    if n == 1:
        return m[0][0]
    out = Poly()
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        term = m[0][j] * _det_cofactor(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


@given(st.lists(st.lists(rationals, min_size=2, max_size=2).map(Poly), min_size=9, max_size=9))
@settings(deadline=None, max_examples=25)
def test_bareiss_matches_cofactor_expansion(entries):
    m = [entries[3 * i : 3 * i + 3] for i in range(3)]
    assert poly_mat_det(m) == _det_cofactor(m)


@given(st.lists(st.lists(rationals, min_size=2, max_size=2).map(Poly), min_size=16, max_size=16))
@settings(deadline=None, max_examples=25)
@example([Poly((c,)) for c in (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 4, 5, 7)])
def test_bareiss_minors_match_cofactor_expansion(entries):
    m = [entries[4 * i : 4 * i + 4] for i in range(4)]
    det, minors = poly_mat_det(m, minors=True)
    assert det == _det_cofactor(m)
    if not m[0][0]:
        assert minors is None  # a row swap was needed
    if minors is not None:
        assert minors == (
            _det_cofactor([row[:3] for row in m[:3]]),
            _det_cofactor([row[:2] + row[3:] for row in m[:3]]),
            _det_cofactor([row[:2] for row in m[:2]]),
        )


def test_minors_of_a_2x2_and_a_swap():
    a, b, c, d = Poly((1, 2)), Poly((F(1, 3),)), Poly((0, 5)), Poly((F(-1, 2), 1))
    assert poly_mat_det([[a, b], [c, d]], minors=True) == (a * d - b * c, (a, b, Poly((1,))))
    # a zero (1,1) entry: the determinant still comes back, the minors do not
    zero = Poly()
    assert poly_mat_det([[zero, b], [c, d]], minors=True) == (-(b * c), None)


def test_poly_pickles():
    for p in (Poly(), Poly((1, 2)), Poly((F(-3, 4), 0, F(5, 6)))):
        back = pickle.loads(pickle.dumps(p))
        assert back == p and (back.num, back.den) == (p.num, p.den)


def test_det_of_empty_and_singular():
    assert poly_mat_det([]) == Poly((1,))
    row = [Poly((1, 2)), Poly((3, 4))]
    assert not poly_mat_det([row, row])
