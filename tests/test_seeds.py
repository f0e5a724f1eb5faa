import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_exactmath import (
    columns,
    compose_neg,
    ref_add,
    ref_diff,
    ref_int_add,
    ref_int_diff,
    ref_mul,
    ref_pochhammer,
    ref_scale,
    ref_shift_up,
    ref_sub,
)
from xlag.errors import SpecInvalid
from xlag.exactmath import Poly, _int_column, _poly
from xlag.regularity import count_roots_open_interval
from xlag.seeds import HALF, laguerre, laguerre_series, seed_derivatives
from xlag.spectral import _polyval, build_potential, expected_spectrum
from xlag.wronskian import ExtensionSpec, compute_g

params = st.fractions(min_value=-10, max_value=10, max_denominator=8)


# -- the factored seed and its Poly derivative, kept as the oracle of the
# -- int derivative table (seed_derivatives)


class SeedKind(Enum):
    TYPE_I = "I"
    TYPE_II = "II"


@dataclass(frozen=True)
class QuasiPoly:
    """A value z^zpower * e^(expsign*z/2) * poly(z), exact and closed
    under d/dz."""

    zpower: F
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


def make_seed(kind: SeedKind, m: int, alpha_prime: F) -> QuasiPoly:
    """Seed function for the starting potential with parameter alpha_prime.

    Type I comes from the omega -> -omega symmetry and lies below the
    ground state for every m; type II (alpha -> -alpha) requires
    alpha_prime > m to be nodeless.  A float or bool alpha_prime is
    rejected with TypeError.
    """
    if isinstance(alpha_prime, bool) or not isinstance(alpha_prime, (int, F)):
        raise TypeError(f"make_seed argument must be int or Fraction, got {alpha_prime!r}")
    if alpha_prime < HALF:
        raise SpecInvalid(f"alpha' must be >= 1/2, got {alpha_prime}")
    if kind is SeedKind.TYPE_I:
        return QuasiPoly((alpha_prime + HALF) / 2, +1, compose_neg(laguerre(m, alpha_prime)))
    return QuasiPoly(-(alpha_prime - HALF) / 2, -1, laguerre(m, -alpha_prime))


def quasipoly_table(kind, m, alpha_prime, k):
    """The seed's polynomial and those of its first k - 1 derivatives, by QuasiPoly.diff."""
    cur = make_seed(kind, m, alpha_prime)
    out = [cur.poly]
    for _ in range(k - 1):
        cur = cur.diff()
        out.append(cur.poly)
    return out


def test_laguerre_low_orders():
    a = F(7, 4)
    assert laguerre(0, a) == Poly((1,))
    assert laguerre(1, a) == Poly((a + 1, -1))


@pytest.mark.parametrize("a", [0.1, 2.0, 0.5, True])
def test_laguerre_rejects_a_float_parameter(a):
    # a float is neither converted to its binary fraction nor, as 0.5 equals
    # and hashes like F(1, 2), served from a cache; a bool, which equals
    # and hashes like an int, is refused the same way, as a degree too
    # (laguerre(True, 1) would be L_1)
    laguerre(1, F(1, 2))
    laguerre(1, 1)
    with pytest.raises(TypeError, match="must be int or Fraction"):
        laguerre(1, a)
    with pytest.raises(TypeError, match="degree must be int"):
        laguerre(True, F(1, 2))


def test_laguerre_rejects_a_negative_degree():
    with pytest.raises(ValueError):
        laguerre(-1, F(1, 2))


def test_laguerre_value_at_origin_paper_case():
    # L_3^{(3/2)}(0) = (5/2)(7/2)(9/2)/6 = 105/16
    assert laguerre(3, F(3, 2)).eval(0) == F(105, 16)


@given(st.integers(min_value=0, max_value=10), params)
def test_laguerre_value_at_origin(n, a):
    assert laguerre(n, a).eval(0) == ref_pochhammer(a + 1, n) / math.factorial(n)


@given(st.integers(min_value=0, max_value=12), params)
def test_laguerre_matches_the_pochhammer_series(n, a):
    # the Fraction route laguerre's integer form replaces, coefficient by coefficient
    series = [
        (-1) ** i * ref_pochhammer(a + i + 1, n - i) / (math.factorial(n - i) * math.factorial(i))
        for i in range(n + 1)
    ]
    assert laguerre(n, a).coeffs == tuple(series)


@given(st.lists(st.fractions(-(10**6), 10**6, max_denominator=10**9), max_size=8))
def test_polyval_is_bit_identical_to_the_fraction_route(coeffs):
    # numerator / denominator and float(Fraction) both round the same rational once
    p = Poly(coeffs)
    z = np.linspace(0.1, 5.0, 7)
    expect = np.zeros_like(z)
    for c in reversed(p.coeffs):
        expect = expect * z + float(c)
    assert np.array_equal(_polyval(p, z), expect)


@given(st.integers(min_value=1, max_value=9), params)
def test_laguerre_three_term_recurrence(n, a):
    # independent route: (n+1) L_{n+1} = (2n+1+a-z) L_n - (n+a) L_{n-1}
    lhs = ref_scale(laguerre(n + 1, a).coeffs, n + 1)
    rhs = ref_sub(ref_mul([2 * n + 1 + a, -1], laguerre(n, a).coeffs), ref_scale(laguerre(n - 1, a).coeffs, n + a))
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=10), params)
@settings(deadline=None)
def test_laguerre_ode_identity(n, a):
    # z y'' + (a+1-z) y' + n y = 0 as an exact polynomial identity
    y = list(laguerre(n, a).coeffs)
    residual = ref_add(ref_shift_up(ref_diff(ref_diff(y)), 1), ref_add(ref_mul([a + 1, -1], ref_diff(y)), ref_scale(y, n)))
    assert not residual


def test_negated_arg():
    a = F(5, 3)
    assert compose_neg(laguerre(1, a)) == Poly((a + 1, 1))
    assert compose_neg(laguerre(0, a)) == Poly((1,))
    assert compose_neg(laguerre(2, F(3, 2))) == Poly((F(35, 8), F(7, 2), F(1, 2)))


@given(st.integers(min_value=0, max_value=8), params.filter(lambda a: a > -1))
def test_negated_arg_all_coefficients_positive(n, a):
    assert all(c > 0 for c in compose_neg(laguerre(n, a)).coeffs)


def test_isotonic_spectrum():
    # omega*(2 nu + alpha + 1), the spectrum of the empty extension; values
    # confirmed against an independent finite-difference eigensolve of the
    # oscillator
    assert expected_spectrum(ExtensionSpec(F(3, 2), 1, (), ()), 2) == [F(5, 2), F(9, 2)]
    assert expected_spectrum(ExtensionSpec(F(1, 2), 2, (), ()), 1) == [3]


def test_isotonic_params_validation():
    # l = -1 (alpha = -1/2, alpha' = 1/2) is a valid spec but has no potential
    with pytest.raises(SpecInvalid):
        build_potential(compute_g(ExtensionSpec(F(-1, 2), 1, (), (1,))))
    with pytest.raises(SpecInvalid):
        ExtensionSpec(F(3, 2), 0, (), ())


def test_make_seed_type_i():
    qp = make_seed(SeedKind.TYPE_I, 1, F(3, 2))
    assert qp.poly == Poly((F(5, 2), 1))
    assert qp.zpower == 1
    assert qp.expsign == +1


def test_make_seed_type_ii():
    # L_1^{(-5/2)}(z) = -3/2 - z; gauge power -(alpha'-1/2)/2 = -1
    qp = make_seed(SeedKind.TYPE_II, 1, F(5, 2))
    assert qp.poly == Poly((F(-3, 2), -1))
    assert qp.zpower == -1
    assert qp.expsign == -1
    with pytest.raises(SpecInvalid):
        make_seed(SeedKind.TYPE_II, 1, F(1, 4))


@pytest.mark.parametrize("kind", list(SeedKind))
def test_make_seed_rejects_a_float_alpha_prime(kind):
    # a float is not converted to its binary fraction (2.1 is over 2^51)
    with pytest.raises(TypeError, match="must be int or Fraction"):
        make_seed(kind, 1, 2.1)
    with pytest.raises(TypeError, match="must be int or Fraction"):
        make_seed(kind, 1, True)


def test_quasipoly_rejects_an_exponent_sign_other_than_one():
    with pytest.raises(ValueError):
        QuasiPoly(0, 0, Poly((1,)))


def test_quasipoly_diff_examples():
    d = QuasiPoly(0, -1, Poly((1,))).diff()
    assert (d.zpower, d.expsign, d.poly) == (-1, -1, Poly((0, F(-1, 2))))
    d = QuasiPoly(1, +1, Poly((1,))).diff()
    assert (d.zpower, d.expsign, d.poly) == (0, +1, Poly((1, F(1, 2))))
    d2 = QuasiPoly(0, -1, Poly((1,))).diff().diff()
    assert (d2.zpower, d2.expsign, d2.poly) == (-2, -1, Poly((0, 0, F(1, 4))))


def ref_quasipoly_diff(qp):
    """The three terms a P + (s/2) z P + z P' summed apart on P's int
    numerators over 2 den(a) den(P): the route QuasiPoly.diff's one integer
    pass replaces."""
    a, s, p = qp.zpower, qp.expsign, qp.poly
    an, ad = a.numerator, a.denominator
    terms = [2 * an * c for c in p.num], [0, *(s * ad * c for c in p.num)], [0, *(2 * ad * c for c in ref_int_diff(p.num))]
    return QuasiPoly(a - 1, s, _poly(ref_int_add(*terms), 2 * ad * p.den))


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.sampled_from([-1, 1]),
    st.lists(params, max_size=8).map(Poly),
)
@example(F(0), 1, Poly())  # the zero polynomial
@example(F(-1, 4), -1, Poly((F(3, 2), 1)))  # the z^1 coefficient cancels
def test_quasipoly_diff_matches_the_fraction_route(a, s, poly):
    # equal QuasiPolys hold equal zpowers and the same reduced num and den
    qp = QuasiPoly(a, s, poly)
    assert qp.diff() == ref_quasipoly_diff(qp)


@given(
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
    st.sampled_from([-1, 1]),
    st.lists(params, min_size=1, max_size=4).map(Poly).filter(bool),
    st.floats(min_value=0.5, max_value=10.0),
)
@settings(deadline=None, max_examples=40)
def test_quasipoly_diff_matches_finite_difference(a, s, poly, z0):
    qp = QuasiPoly(a, s, poly)

    def eval_float(q, z):
        # z^a e^(s z / 2) P(z), the polynomial exact and rounded once
        return math.pow(z, float(q.zpower)) * math.exp(q.expsign * z / 2.0) * float(q.poly.eval(F(z)))

    def central(h):
        return (eval_float(qp, z0 + h) - eval_float(qp, z0 - h)) / (2 * h)

    h = 1e-4 * z0
    numeric = (4 * central(h / 2) - central(h)) / 3  # Richardson: O(h^4) truncation
    exact = eval_float(qp.diff(), z0)
    scale = max(abs(exact), abs(eval_float(qp, z0 + h)) / z0, abs(eval_float(qp, z0 - h)) / z0)
    assert abs(numeric - exact) <= 1e-8 * scale


@pytest.mark.parametrize("m", range(1, 7))
def test_type_ii_seed_nodeless_when_admissible(m):
    # L_m^{(-a')}(z) has no roots on (0, inf) whenever a' > m
    for j in range(1, 10):
        ap = m + F(j, 2)
        seed = _poly(*seed_derivatives(False, m, ap, 1)[0])
        assert seed == laguerre(m, -ap)
        assert count_roots_open_interval(seed, 0) == 0


def test_type_ii_seed_has_node_below_bound():
    # the counterexample configuration: alpha' = 3/2 < m = 2
    seed = _poly(*seed_derivatives(False, 2, F(3, 2), 1)[0])
    assert count_roots_open_interval(seed, 0) == 1


@given(st.integers(-3, 12), st.integers(-40, 40), st.integers(1, 12), st.booleans())
@example(0, 5, 1, False)
def test_laguerre_series_is_the_unreduced_laguerre(n, p, q, negated):
    # p/q need not be in lowest terms; a negative degree is the zero polynomial
    series = laguerre_series(n, p, q, negated)
    if n < 0:
        assert series == []
        return
    expect = laguerre(n, F(p, q))
    assert _poly(series, q**n * math.factorial(n)) == (compose_neg(expect) if negated else expect)
    assert len(series) == n + 1 and series[-1]


@pytest.mark.parametrize("kind", list(SeedKind))
def test_seed_derivatives_equal_the_quasipoly_table(kind):
    # row by row as rationals, and as poly_mat_det's columns: the int table
    # in lowest terms per column is the QuasiPoly table scaled the old way
    checked = 0
    for k in range(1, 6):
        for m in range(1, 7):
            for ap in (F(1, 2), F(1), F(5, 2), F(7, 3), F(9), F(41, 4)):
                table = seed_derivatives(kind is SeedKind.TYPE_I, m, ap, k)
                polys = quasipoly_table(kind, m, ap, k)
                assert [_poly(list(num), den) for num, den in table] == polys
                assert [_int_column(table)] == columns([[p] for p in polys])
                checked += 1
    assert checked == 5 * 6 * 6


def test_isotonic_potential_float():
    # the empty extension at l = 1, omega = 1: omega^2 x^2 / 4 + l(l+1) / x^2
    p = build_potential(compute_g(ExtensionSpec(F(3, 2), 1, (), ())))
    assert p(2.0) == pytest.approx(0.25 * 4 + 2 / 4)
    xs = np.array([1.0, 2.0])
    assert p(xs).shape == (2,)
