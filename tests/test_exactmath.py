from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlag.errors import NotDivisible
from xlag.exactmath import Poly, pochhammer, poly_gcd, poly_mat_det, remainder_chain, vandermonde

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=16)
polys = st.lists(rationals, min_size=0, max_size=7).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def test_difference_of_squares():
    assert Poly((1, 1)) * Poly((-1, 1)) == Poly((-1, 0, 1))


def test_additive_identity():
    p = Poly((F(1, 2), 3, F(-7, 5)))
    assert p + Poly.zero() == p


def test_hand_convolution():
    # (2z+3) * z^2 = 2z^3 + 3z^2
    assert Poly((3, 2)) * Poly.monomial(1, 2) == Poly((0, 0, 3, 2))


def test_diff_power_rule():
    assert Poly.monomial(1, 3).diff() == Poly((0, 0, 3))
    assert Poly.const(F(9, 4)).diff().is_zero


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
    assert Poly.zero().divexact_zpow(3).is_zero


def test_pochhammer_values():
    a = F(7, 3)
    assert pochhammer(a, 0) == 1
    assert pochhammer(F(3), 2) == 12
    assert pochhammer(F(-1, 2), 3) == F(-3, 8)


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
    assert Poly.zero().degree is None
    assert Poly.const(4).degree == 0
    assert Poly((0, 0, 1)).degree == 2


def test_str_rendering():
    assert str(Poly((F(-1, 8), F(-1, 2), F(1, 2)))) == "1/2*z^2 - 1/2*z - 1/8"
    assert str(Poly.zero()) == "0"


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


@given(polys, nonzero_polys)
def test_divmod_identity(p, q):
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.is_zero or rem.degree < q.degree


@given(nonzero_polys, nonzero_polys)
@settings(deadline=None)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    assert p.divmod(g)[1].is_zero
    assert q.divmod(g)[1].is_zero


def test_squarefree_part_collapses_multiplicity():
    # the chain of p and p' ends in the repeated factor; p over it is square-free
    p = Poly((-1, 1)) * Poly((-1, 1)) * Poly((2, 1))
    last = remainder_chain(p, p.diff())[-1]
    assert last.monic() == Poly((-1, 1))
    assert p.divmod(last) == (Poly((-2, 1, 1)) * (p.leading / last.leading), Poly.zero())
    assert poly_gcd(p, p.diff()) == Poly((-1, 1))


def _det_cofactor(m):
    # independent oracle: Laplace expansion
    n = len(m)
    if n == 0:
        return Poly.one()
    if n == 1:
        return m[0][0]
    out = Poly.zero()
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


def test_det_of_empty_and_singular():
    assert poly_mat_det([]) == Poly.one()
    row = [Poly((1, 2)), Poly((3, 4))]
    assert poly_mat_det([row, row]).is_zero
