import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_exactmath import ref_pochhammer
from xlag.errors import SpecInvalid
from xlag.exactmath import Poly
from xlag.regularity import count_roots_open_interval
from xlag.seeds import (
    QuasiPoly,
    SeedKind,
    laguerre,
    make_seed,
)
from xlag.spectral import _polyval, build_potential, expected_spectrum
from xlag.wronskian import ExtensionSpec, compute_g

params = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def test_laguerre_low_orders():
    a = F(7, 4)
    assert laguerre(0, a) == Poly((1,))
    assert laguerre(1, a) == Poly((a + 1, -1))


@pytest.mark.parametrize("a", [0.1, 2.0, 0.5])
def test_laguerre_rejects_a_float_parameter(a):
    # a float is neither converted to its binary fraction nor, as 0.5 equals
    # and hashes like F(1, 2), served from the cache
    laguerre(1, F(1, 2))
    with pytest.raises(TypeError, match="must be int or Fraction"):
        laguerre(1, a)


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
    lhs = laguerre(n + 1, a) * (n + 1)
    rhs = Poly((2 * n + 1 + a, -1)) * laguerre(n, a) - laguerre(n - 1, a) * (n + a)
    assert lhs == rhs


@given(st.integers(min_value=0, max_value=10), params)
@settings(deadline=None)
def test_laguerre_ode_identity(n, a):
    # z y'' + (a+1-z) y' + n y = 0 as an exact polynomial identity
    y = laguerre(n, a)
    residual = y.diff().diff().shift_up(1) + Poly((a + 1, -1)) * y.diff() + y * n
    assert not residual


def test_negated_arg():
    a = F(5, 3)
    assert laguerre(1, a).compose_neg() == Poly((a + 1, 1))
    assert laguerre(0, a).compose_neg() == Poly((1,))
    assert laguerre(2, F(3, 2)).compose_neg() == Poly((F(35, 8), F(7, 2), F(1, 2)))


@given(st.integers(min_value=0, max_value=8), params.filter(lambda a: a > -1))
def test_negated_arg_all_coefficients_positive(n, a):
    assert all(c > 0 for c in laguerre(n, a).compose_neg().coeffs)


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
    """The scalar-times-Poly route that QuasiPoly.diff's integer pass replaces."""
    a, s, p = qp.zpower, qp.expsign, qp.poly
    zp = p.shift_up(1)
    new = a * p + zp * F(s, 2) + p.diff().shift_up(1)
    return QuasiPoly(a - 1, s, new)


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
        qp = make_seed(SeedKind.TYPE_II, m, ap)
        assert count_roots_open_interval(qp.poly, 0) == 0


def test_type_ii_seed_has_node_below_bound():
    # the counterexample configuration: alpha' = 3/2 < m = 2
    qp = make_seed(SeedKind.TYPE_II, 2, F(3, 2))
    assert count_roots_open_interval(qp.poly, 0) == 1


def test_isotonic_potential_float():
    # the empty extension at l = 1, omega = 1: omega^2 x^2 / 4 + l(l+1) / x^2
    p = build_potential(compute_g(ExtensionSpec(F(3, 2), 1, (), ())))
    assert p(2.0) == pytest.approx(0.25 * 4 + 2 / 4)
    xs = np.array([1.0, 2.0])
    assert p(xs).shape == (2,)
