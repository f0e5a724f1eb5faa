import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction as F

import numpy as np
import pytest

from test_acceptance import EOP_SPECS, SPECTRUM_SPECS
from test_exactmath import (
    ref_add,
    ref_diff,
    ref_int_add,
    ref_int_diff,
    ref_int_mul,
    ref_mul,
    ref_scale,
    ref_shift_up,
    ref_sub,
)
from test_regularity import _inadmissible_probes
from xlag import exactmath, spectral
from xlag.errors import NullSpaceDimension, QuadratureNonconvergence, SpecInvalid
from xlag.exactmath import Poly, _poly
from xlag.regularity import certify
from xlag.seeds import laguerre
from xlag.spectral import (
    _clenshaw_curtis,
    _ode_operator,
    _polyval,
    build_potential,
    expected_spectrum,
    numeric_spectrum,
    orthogonality_check,
    solve_eop,
    wavefunction,
)
from xlag.verify import enumerate_lattice
from xlag.wronskian import ExtensionSpec, compute_g


def pipeline(alpha, m_i=(), m_ii=(), omega=1):
    spec = ExtensionSpec(F(alpha), omega, tuple(m_i), tuple(m_ii))
    report = compute_g(spec)
    return spec, report, certify(report).regular


def eop_nullspace(g, alpha, nu, degree):
    """Basis of polynomial solutions of degree <= degree with eigenvalue
    -nu, as coefficient vectors, by dense null-space reduction of the same
    operator: the oracle for solve_eop's back-substitution."""
    entry = _ode_operator(g, alpha)
    rows = [[entry(r, d, nu) for d in range(degree + 1)] for r in range(degree + g.degree + 1)]
    return exactmath.rational_nullspace(rows)


def ode_residual(g, alpha, nu, y):
    """z g y'' + [(alpha+1-z) g - 2z g'] y' + [(z-alpha) g' + z g'' + nu g] y,
    term by term on the int numerators G, Y of g, y and alpha = a/s, each
    product the schoolbook `ref_int_mul`, over den(g) den(y) s."""
    a, s, G, Y = alpha.numerator, alpha.denominator, g.num, y.num
    G1, Y1 = ref_int_diff(G), ref_int_diff(Y)
    G2 = ref_int_diff(G1)
    p2 = [0, *(s * c for c in G)]
    p1 = ref_int_add([(a + s) * c for c in G], [0, *(-s * c for c in G)], [0, *(-2 * s * c for c in G1)])
    p0 = ref_int_add([0, *(s * c for c in G1)], [-a * c for c in G1], [0, *(s * c for c in G2)], [s * nu * c for c in G])
    terms = (ref_int_mul(p2, ref_int_diff(Y1)), ref_int_mul(p1, Y1), ref_int_mul(p0, Y))
    return _poly(ref_int_add(*terms), g.den * y.den * s)


def ref_build_potential(report):
    """(rat_num, rat_den) of build_potential from -omega [A' + 2z (A'' - 4 B)]
    over A, A = g^2 and B = g'^2 on g's int numerators by the schoolbook
    `ref_int_mul`, each reduced by its own gcd: the route the packed products
    replaced, their oracle."""
    G, omega, den = report.g.num, report.spec.omega, report.g.den**2
    A = ref_int_mul(G, G)
    A1, B = ref_int_diff(A), ref_int_mul(ref_int_diff(G), ref_int_diff(G))
    num = ref_int_add(A1, [0, *(2 * c for c in ref_int_add(ref_int_diff(A1), [-4 * c for c in B]))])
    return _poly([-omega.numerator * c for c in num], den * omega.denominator), _poly(A, den)


class TestPotential:
    @pytest.mark.parametrize(
        "specs",
        [
            list(enumerate_lattice(max_k=4, max_m=4, alpha_steps=2)),  # perfbench's lattice
            [  # the mu = 5, mu = 30 and nodal rungs
                ExtensionSpec(F(9, 2), 1, (1,), (1, 2)),
                ExtensionSpec(F(29, 2), 1, (2, 4, 6), (3, 5, 7)),
                ExtensionSpec(F(5, 2), 1, (6, 8, 10, 12), (7, 9, 11, 13)),
            ],
            [ExtensionSpec(F(3, 4), F(3, 2), (1,), (1,)), ExtensionSpec(F(7, 2), F(3, 2), (1, 3), (2,))],
            [ExtensionSpec(F(3, 2), 1, (), ()), ExtensionSpec(F(5, 2), F(3, 2), (), ())],  # g = 1
        ],
        ids=["lattice", "rungs", "omega", "constant_g"],
    )
    def test_the_int_numerators_give_the_poly_route(self, specs):
        for spec in specs:
            report = compute_g(spec)
            pot = build_potential(report)
            assert (pot.rat_num, pot.rat_den) == ref_build_potential(report), spec

    def test_negative_l_is_refused_before_any_product(self, monkeypatch):
        spec, report, regular = pipeline("1/4", m_ii=(1,))
        assert spec.l < 0

        def no_product(a, b):
            raise AssertionError("a product was formed")

        monkeypatch.setattr(spectral, "_int_mul", no_product)
        with pytest.raises(SpecInvalid, match="negative"):
            build_potential(report)

    def test_identity_extension_is_classical(self):
        spec, report, regular = pipeline("3/2")
        pot = build_potential(report)
        assert pot.spec.shift == 0
        assert not pot.rat_num
        xs = np.linspace(0.3, 6.0, 50)
        # omega^2 x^2 / 4 + l(l+1) / x^2 at l = 1, omega = 1
        assert np.allclose(pot(xs), xs**2 / 4 + 2 / xs**2, rtol=0, atol=1e-14)

    def test_k1_rational_part_closed_form(self):
        # g = z + alpha gives V_rat = -2 omega (alpha - z) / (z + alpha)^2
        spec, report, regular = pipeline("5/2", m_i=(1,))
        pot = build_potential(report)
        a = F(5, 2)
        for z in (F(1, 3), F(2), F(17, 4)):
            expect = F(-2) * (a - z) / (z + a) ** 2
            assert pot.rat_num.eval(z) / pot.rat_den.eval(z) == expect

    def test_shift_values(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1, 2))  # k=3, q=1
        assert build_potential(report).spec.shift == spec.omega
        spec, report, regular = pipeline("5/2", m_i=(1,))
        assert build_potential(report).spec.shift == -spec.omega

    @pytest.mark.parametrize(
        "specs",
        [EOP_SPECS, [("5/2", (6, 8, 10, 12), (7, 9, 11, 13))]],  # the nodal rung: deg g = 80
        ids=["eop_suite", "nodal"],
    )
    def test_rational_part_matches_the_fraction_formula(self, specs):
        # -2 omega [g'g + 2z(g''g - g'^2)] / g^2 over plain Fraction lists
        for alpha, m_i, m_ii in specs:
            spec, report, regular = pipeline(alpha, m_i, m_ii)
            pot = build_potential(report)
            g = list(report.g.coeffs)
            gd = ref_diff(g)
            inner = ref_shift_up(ref_sub(ref_mul(ref_diff(gd), g), ref_mul(gd, gd)), 1)
            num = ref_scale(ref_add(ref_mul(gd, g), ref_scale(inner, 2)), -2 * spec.omega)
            assert list(pot.rat_num.coeffs) == num, spec
            assert list(pot.rat_den.coeffs) == ref_mul(g, g), spec


class TestEOP:
    def test_classical_limit_is_laguerre(self):
        spec, report, regular = pipeline("3/2")
        family = solve_eop(report, 6)
        for nu in range(7):
            assert family[nu] == laguerre(nu, F(3, 2)).monic()

    def test_k1_first_polynomial_hand_solved(self):
        spec, report, regular = pipeline("5/2", m_i=(1,))
        family = solve_eop(report, 0)
        assert family[0] == Poly((F(7, 2), 1))  # z + alpha + 1

    def test_degrees(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        family = solve_eop(report, 2)
        assert report.g.degree == 3
        assert [family[nu].degree for nu in range(3)] == [3, 4, 5]

    def test_ode_residual_exactly_zero(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        family = solve_eop(report, 3)
        for nu in range(4):
            assert not ode_residual(report.g, spec.alpha, nu, family[nu])

    def test_degree_gaps(self):
        # no polynomial of degree < mu solves the system, for any level
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        mu = report.g.degree
        for nu in range(4):
            assert eop_nullspace(report.g, spec.alpha, nu, mu - 1) == []
            assert eop_nullspace(report.g, spec.alpha, nu, mu + nu - 1) == []

    def test_nullspace_dimension_is_one(self):
        spec, report, regular = pipeline("7/2", m_ii=(1, 2))
        for nu in range(4):
            basis = eop_nullspace(report.g, spec.alpha, nu, report.g.degree + nu)
            assert len(basis) == 1

    @pytest.mark.parametrize(
        "specs, nu_max",
        [
            (EOP_SPECS, 5),
            ([("29/2", (2, 4, 6), (3, 5, 7))], 1),  # the mu = 30 rung
            ([(s.alpha, s.m_type_i, s.m_type_ii) for s in _inadmissible_probes(2, 3)], 2),
        ],
        ids=["eop_suite", "mu30", "inadmissible"],
    )
    def test_backsubstitution_equals_the_nullspace_oracle(self, specs, nu_max):
        for alpha, m_i, m_ii in specs:
            spec, report, regular = pipeline(alpha, m_i, m_ii)
            family = solve_eop(report, nu_max)
            for nu in range(nu_max + 1):
                basis = eop_nullspace(report.g, spec.alpha, nu, report.g.degree + nu)
                assert len(basis) == 1, (spec, nu)
                assert family[nu] == Poly(basis[0]).monic(), (spec, nu)

    def test_perturbed_g_has_no_polynomial_solution(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        bad = replace(report, g=Poly((report.g.constant + 1, *report.g.coeffs[1:])))
        assert eop_nullspace(bad.g, spec.alpha, 0, bad.g.degree) == []
        with pytest.raises(NullSpaceDimension, match="^null space dimension 0, expected 1$"):
            solve_eop(bad, 0)

    def test_a_negative_nu_max_is_refused(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        with pytest.raises(ValueError):
            solve_eop(report, -1)

    @pytest.mark.parametrize(
        "specs",
        [
            list(enumerate_lattice(max_k=4, max_m=4, alpha_steps=2)),  # perfbench's lattice
            [  # the mu = 5, mu = 30 and nodal rungs
                ExtensionSpec(F(9, 2), 1, (1,), (1, 2)),
                ExtensionSpec(F(29, 2), 1, (2, 4, 6), (3, 5, 7)),
                ExtensionSpec(F(5, 2), 1, (6, 8, 10, 12), (7, 9, 11, 13)),
            ],
            [ExtensionSpec(F(1, 4), 1, (), (1,))],
            [ExtensionSpec(F(3, 4), F(3, 2), (1,), (1,))],
        ],
        ids=["lattice", "rungs", "negative_l", "omega"],
    )
    def test_the_band_equals_the_poly_route(self, specs):
        # entry(r, d, nu) is coefficient r of ode_residual on y = z^d, scaled
        # by den(g) den(alpha), on rows d-2 .. d+mu+2: the band and past both ends
        for spec in specs:
            g = compute_g(spec).g
            entry = _ode_operator(g, spec.alpha)
            scale = g.den * spec.alpha.denominator
            mu = g.degree
            for nu in range(4):
                for d in range(mu + 4):
                    residual = ode_residual(g, spec.alpha, nu, Poly((0,) * d + (1,))).coeffs
                    for r in range(d - 2, d + mu + 3):
                        expected = residual[r] * scale if 0 <= r < len(residual) else 0
                        assert entry(r, d, nu) == expected, (spec, r, d, nu)


class TestWavefunction:
    def test_boundary_decay(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        y = solve_eop(report, 0)[0]
        assert abs(wavefunction(report, y, 1e-4)) < 1e-6
        assert abs(wavefunction(report, y, 14.0)) < 1e-12
        assert abs(wavefunction(report, y, 1.0)) > 1e-4

    def test_nodal_counts(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        family = solve_eop(report, 3)
        xs = np.linspace(0.02, 12.0, 6000)
        for nu in range(4):
            vals = wavefunction(report, family[nu], xs)
            sig = vals[np.abs(vals) > np.max(np.abs(vals)) * 1e-12]
            changes = int(np.sum(np.sign(sig[1:]) != np.sign(sig[:-1])))
            assert changes == nu

    @pytest.mark.parametrize(
        "alpha, m_i, m_ii, omega",
        [("3/2", (1,), (), 1), ("7/2", (1,), (1, 2), F(3, 2)), ("29/2", (2, 4, 6), (3, 5, 7), 1)],
        ids=["k1", "mu5_omega_3_2", "mu30"],
    )
    def test_values_equal_the_exact_oracle(self, alpha, m_i, m_ii, omega):
        # on the same float z = omega x^2 / 2: z^((alpha + 1/2)/2) e^(-z/2) in
        # math, times y(z) / g(z) exact and rounded once
        spec, report, regular = pipeline(alpha, m_i, m_ii, omega)
        xs = np.linspace(0.05, 8.0, 400)
        zs = 0.5 * float(spec.omega) * xs * xs
        a = float((spec.alpha + F(1, 2)) / 2)
        for nu, y in enumerate(solve_eop(report, 3)):
            oracle = np.array([math.pow(z, a) * math.exp(-z / 2) * float(y.eval(F(z)) / report.g.eval(F(z))) for z in zs])
            worst = np.max(np.abs(wavefunction(report, y, xs) - oracle))
            assert worst <= 1e-13 * np.max(np.abs(oracle)), (spec, nu)


def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1], the rule orthogonality_check
    used before Clenshaw-Curtis, kept as the pairwise oracle's rule: eigenvalues
    of the tridiagonal Jacobi matrix, then one three-term recurrence pass for
    P_n and P_n' there.  That gives the Newton step d = P_n / P_n' and, through
    Legendre's equation (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n, P_n' - d P_n''
    at the polished node x - d, for the weights 2 / ((1 - x^2) P_n'^2); both
    are symmetrised about 0."""
    from scipy.linalg import eigvalsh_tridiagonal

    k = np.arange(1.0, n)
    x = eigvalsh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), lapack_driver="sterf")
    p0, p = 1.0, x
    for j in range(1, n):
        p0, p = p, ((2 * j + 1) * x * p - j * p0) / (j + 1)
    dp = n * (x * p - p0) / (x * x - 1.0)
    d = p / dp
    dp = dp - d * (2.0 * x * dp - n * (n + 1) * p) / (1.0 - x * x)
    x = x - d
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])


def ref_gauss_legendre(n):
    """Nodes in [0, 1), largest first, and their weights, by Newton on P_n in
    40-digit decimal from the asymptotic guesses cos(pi (i - 1/4) / (n + 1/2));
    odd n adds the node 0.  By symmetry the rest are their negatives."""

    def legendre(x):  # P_n(x), P_n'(x)
        p0, p1 = Decimal(1), x
        for k in range(1, n):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for i in range(1, n // 2 + 1):
            x, step = Decimal(math.cos(math.pi * (i - 0.25) / (n + 0.5))), 1
            while abs(step) > Decimal("1e-36"):
                p, dp = legendre(x)
                step = p / dp
                x -= step
            _, dp = legendre(x)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        assert all(1 > a > b for a, b in zip(nodes, nodes[1:] + [0])), "a root found twice"
        if n % 2:
            nodes.append(Decimal(0))
            weights.append(2 / legendre(Decimal(0))[1] ** 2)
    return nodes, weights


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 5, 200, 301])
    def test_exact_on_even_powers(self, n):
        x, w = _gauss_legendre(n)
        for j in range(n):  # degree 2j <= 2n - 1
            assert abs(np.dot(w, x ** (2 * j)) - 2 / (2 * j + 1)) < 1e-14

    # leggauss(301) is left out: its dense eigensolve takes ~1 s under a multi-threaded BLAS
    @pytest.mark.parametrize("n", [1, 5, 64, 200])
    def test_agrees_with_leggauss(self, n):
        x, w = _gauss_legendre(n)
        x_ref, w_ref = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - x_ref)) < 1e-14
        assert np.max(np.abs(w / w_ref - 1)) < 1e-9

    @pytest.mark.parametrize("n", [5, 64, 200, 301])
    def test_agrees_with_a_40_digit_reference(self, n):
        x, w = _gauss_legendre(n)
        nodes, weights = ref_gauss_legendre(n)
        x, w = x[::-1][: (n + 1) // 2], w[::-1][: (n + 1) // 2]  # x >= 0, largest first
        assert max(abs(a - float(b)) for a, b in zip(x, nodes)) <= 1e-15
        assert max(abs(Decimal(a) / b - 1) for a, b in zip(w, weights)) <= Decimal("2.1e-12")


def clenshaw_curtis_recurrence(n):
    """The rule _clenshaw_curtis replaced, kept as its oracle: the same
    nodes, and weights w_j = (c_j / n) (1 - sum_{k=1..n/2} b_k T_2k(x_j) /
    (4k^2 - 1)) summed by Clenshaw's recurrence in T_k(2x^2 - 1) = T_2k(x)."""
    x = np.cos(np.arange(n + 1) * np.pi / n)
    x = 0.5 * (x - x[::-1])
    t2 = 4.0 * x * x - 2.0
    b1 = b2 = 0.0
    for k in range(n // 2, 0, -1):
        b1, b2 = (1.0 if 2 * k == n else 2.0) / (4.0 * k * k - 1.0) + t2 * b1 - b2, b1
    w = (2.0 / n) * (1.0 - (0.5 * t2 * b1 - b2))
    w[[0, n]] *= 0.5
    return x, w


PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")


def ref_clenshaw_curtis(n):
    """Weights w_0 .. w_{n/2} of the n rule (the rest by symmetry) in
    40-digit decimal, by the defining sum (c_j / n) (1 - sum_k b_k
    cos(2 pi k j / n) / (4k^2 - 1)), each cosine from its Taylor series."""

    def cos(t):
        term = total = Decimal(1)
        m = 0
        while abs(term) > Decimal("1e-45"):
            m += 2
            term = -term * t * t / (m * (m - 1))
            total += term
        return total

    with localcontext() as ctx:
        ctx.prec = 40
        c = [cos(2 * PI_50 * r / n) for r in range(n)]  # cos(2 pi k j / n) = c[k j mod n]
        weights = []
        for j in range(n // 2 + 1):
            s = sum(Decimal(1 if 2 * k == n else 2) / (4 * k * k - 1) * c[k * j % n] for k in range(1, n // 2 + 1))
            weights.append((1 - s) / n * (1 if j == 0 else 2))
    return weights


class TestClenshawCurtis:
    @pytest.mark.parametrize("n", [2, 8, 200, 400])
    def test_exact_on_every_power_up_to_n(self, n):
        # n + 1 nodes and exactness on x^0 .. x^n fix the weights uniquely
        x, w = _clenshaw_curtis(n)
        for m in range(n + 1):
            assert abs(np.dot(w, x**m) - (2 / (m + 1) if m % 2 == 0 else 0)) < 1e-14

    @pytest.mark.parametrize("n", [2, 8, 200, 400])
    def test_weights_positive_symmetric_and_summing_to_2(self, n):
        x, w = _clenshaw_curtis(n)
        assert len(x) == len(w) == n + 1
        assert np.all(w > 0)
        assert np.array_equal(w, w[::-1]) and np.array_equal(x, -x[::-1])
        assert abs(w.sum() - 2) < 1e-14

    def test_coarse_nodes_are_every_other_fine_node(self):
        assert np.array_equal(_clenshaw_curtis(200)[0], _clenshaw_curtis(400)[0][::2])

    @pytest.mark.parametrize("n", [8, 200, 400])
    def test_agrees_with_a_40_digit_reference(self, n):
        # the recurrence's error grows like n^2 eps: 1.15e-12 at n = 400,
        # against 2.4e-14 for the FFT
        weights = ref_clenshaw_curtis(n)
        x, w = _clenshaw_curtis(n)
        x_oracle, w_oracle = clenshaw_curtis_recurrence(n)
        assert np.array_equal(x, x_oracle)
        assert max(abs(Decimal(a) / b - 1) for a, b in zip(w, weights)) <= Decimal("1e-13")
        assert max(abs(Decimal(a) / b - 1) for a, b in zip(w_oracle, weights)) <= Decimal("2e-12")


def pairwise_gram(report, family, i, j, rule):
    """<i,i>, <j,j> and <i,j>, each the integral of y y' z^alpha e^-z / g^2
    over (0, inf) by the mapped Gauss-Legendre rule (x, wts) with z = u^2,
    over this pair's own window: as far either side of the pair's peak z = p
    as orthogonality_check goes past its highest one, cut at 0 below, and
    past the degrees' cutoff above.  All three share the nodes and the
    weight, taken in log space relative to its largest value over them, so
    z^alpha cannot overflow and the scale cancels from the ratio."""
    deg_i, deg_j = family[i].degree, family[j].degree
    a = float(report.spec.alpha)
    p = max(a + deg_i + deg_j - 2 * report.g.degree, 0.0)
    zmax = max(60.0 + 4.0 * (deg_i + deg_j + 2), p + 40.0 + 9.0 * np.sqrt(p))
    umin, umax = np.sqrt(max(p - 40.0 - 9.0 * np.sqrt(p), 0.0)), np.sqrt(zmax)
    x, wts = rule
    u = umin + 0.5 * (umax - umin) * (x + 1.0)
    z = u * u
    log_w = a * np.log(z) - z
    f = (umax - umin) * u * np.exp(log_w - log_w.max()) * wts / _polyval(report.g, z) ** 2
    y_i, y_j = _polyval(family[i], z), _polyval(family[j], z)
    return float(np.dot(f, y_i * y_i)), float(np.dot(f, y_j * y_j)), float(np.dot(f, y_i * y_j))


@pytest.fixture(scope="module")
def gauss_rules():
    """The 200- and 301-node Gauss-Legendre rules of the pairwise oracle."""
    return [_gauss_legendre(n) for n in (200, 301)]


def pairwise_offdiag(report, family, i, j, rules):
    """The pairwise route orthogonality_check replaced, kept as its oracle:
    |<i,j>| / sqrt(<i,i><j,j>) per Gauss-Legendre rule, a different rule
    from the check's Clenshaw-Curtis pair."""
    vals = []
    for rule in rules:
        nii, njj, nij = pairwise_gram(report, family, i, j, rule)
        vals.append(abs(nij) / (np.sqrt(nii) * np.sqrt(njj)))
    assert abs(vals[0] - vals[1]) <= 1e-10
    return vals[1]


class TestOrthogonality:
    def test_single_level_has_no_off_diagonal(self):
        spec, report, regular = pipeline("5/2", m_i=(1,))
        assert orthogonality_check(report, solve_eop(report, 0)) is None

    def test_classical_off_diagonal(self):
        spec, report, regular = pipeline("3/2")
        assert orthogonality_check(report, solve_eop(report, 5)) < 1e-12

    def test_extended_off_diagonal(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        assert orthogonality_check(report, solve_eop(report, 5)) < 1e-8

    @pytest.mark.parametrize("alpha, m_i, m_ii", [("1/2", (), ()), ("1/2", (), (1, 2)), ("2/3", (), ())])
    def test_small_alpha_passes_without_a_warning(self, alpha, m_i, m_ii):
        # l = 0 and the endpoint-singular z^(2/3): the u = 0 node gets weight 0
        # and no log(0) is taken
        spec, report, regular = pipeline(alpha, m_i, m_ii)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert orthogonality_check(report, solve_eop(report, 5)) < 1e-13

    @pytest.mark.xfail(
        strict=True,
        raises=QuadratureNonconvergence,
        reason="the two rules disagree near u = 0 at l < 0: ROADMAP item 8's grading u = u_max s^2",
    )
    @pytest.mark.parametrize("alpha", ["1/4", "1/10"])
    def test_a_regular_family_with_negative_l_passes(self, alpha):
        # extend checks no l < 0 family numerically until this passes
        spec, report, regular = pipeline(alpha, m_ii=(1,))
        assert regular and spec.l < 0
        assert orthogonality_check(report, solve_eop(report, 3)) < 1e-8

    def test_large_alpha_off_diagonal(self):
        # the weight z^alpha e^-z peaks near z = alpha; a cutoff set by the
        # degrees alone truncated it here and read 0.04
        spec, report, regular = pipeline("121/2", m_i=(1,))
        assert orthogonality_check(report, solve_eop(report, 3)) < 1e-8

    @pytest.mark.parametrize("alpha", ["341/2", "1001/2"])
    def test_a_weight_past_the_float_range_is_scaled_into_it(self, alpha):
        # unscaled, z^alpha e^-z overflowed here and the Gram matrices filled
        # with NaN, which passed the 1e-10 agreement test
        spec, report, regular = pipeline(alpha, m_i=(1,))
        assert orthogonality_check(report, solve_eop(report, 3)) < 1e-8

    def test_a_non_finite_gram_matrix_raises(self, monkeypatch):
        def poisoned(n):
            x, w = clenshaw_curtis(n)
            w[n // 2] = np.inf
            return x, w

        clenshaw_curtis = spectral._clenshaw_curtis
        monkeypatch.setattr(spectral, "_clenshaw_curtis", poisoned)
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        with pytest.raises(QuadratureNonconvergence, match="non-finite"):
            orthogonality_check(report, solve_eop(report, 3))

    def test_large_alpha_detects_a_non_orthogonal_pair(self, gauss_rules):
        # y0 + y1 is far from orthogonal to y0; a float z^alpha overflowed the
        # norm product to inf and read exactly 0.0 for this pair
        spec, report, regular = pipeline("201/2", m_i=(1,))
        family = solve_eop(report, 1)
        mixed = (family[0], Poly(ref_add(family[0].coeffs, family[1].coeffs)))
        worst = orthogonality_check(report, mixed)
        assert worst > 1e-3
        assert abs(worst - pairwise_offdiag(report, mixed, 0, 1, gauss_rules)) < 1e-13

    @pytest.mark.parametrize(
        "specs, nu_max",
        [
            (EOP_SPECS, 5),
            # nu <= 3: at nu = 5 both routes read round-off (up to ~1e-12 at 301/2)
            ([(a, (1,), ()) for a in ("121/2", "201/2", "301/2", "1001/2", "2001/2")], 3),
            ([("27/2", (2, 4, 6), (3, 5, 7))], 3),  # the mu = 30 rung
        ],
        ids=["eop_suite", "large_alpha", "mu30"],
    )
    def test_gram_matrix_equals_the_pairwise_oracle(self, specs, nu_max, gauss_rules):
        for alpha, m_i, m_ii in specs:
            spec, report, regular = pipeline(alpha, m_i, m_ii)
            assert regular, spec
            family = solve_eop(report, nu_max)
            pairs = [(i, j) for i in range(nu_max + 1) for j in range(i + 1, nu_max + 1)]
            oracle = max(pairwise_offdiag(report, family, i, j, gauss_rules) for i, j in pairs)
            assert abs(orthogonality_check(report, family) - oracle) < 1e-13, spec

    def test_node_counts_that_disagree_raise(self, monkeypatch):
        # the n = 200 weights replaced by the n = 8 rule on every 25th node, a
        # low-order rule on the same nodes, cannot integrate y_5^2.  (Trapezoid
        # weights on these nodes are the trapezoid rule in theta scaled by
        # sin(pi/n)/(pi/n), which the normalization cancels: they pass.)
        def low_order(n):
            x, w = clenshaw_curtis(n)
            if n == 200:
                w = np.zeros_like(x)
                w[::25] = clenshaw_curtis(8)[1]
            return x, w

        clenshaw_curtis = spectral._clenshaw_curtis
        monkeypatch.setattr(spectral, "_clenshaw_curtis", low_order)
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        with pytest.raises(QuadratureNonconvergence, match="moved from"):
            orthogonality_check(report, solve_eop(report, 5))


def ref_fd_levels(potential, n_levels, x):
    """Lowest n_levels eigenvalues of -d^2/dx^2 + V on the uniform grid x by
    second-order differences, its Dirichlet walls one step outside it."""
    from scipy.linalg import eigvalsh_tridiagonal

    h = x[1] - x[0]
    off = np.full(len(x) - 1, -1.0 / h**2)
    return eigvalsh_tridiagonal(2.0 / h**2 + potential(x), off, select="i", select_range=(0, n_levels - 1))


def fd_x_max(potential, n_levels):
    """A wall past the highest level's classical turning point, where that
    level has decayed far below round-off."""
    w = float(potential.spec.omega)
    e_top = w * (2 * (n_levels - 1) + float(potential.spec.alpha) + 1) + abs(float(potential.spec.shift))
    return math.sqrt((2.0 * math.sqrt(e_top) / w) ** 2 + 120.0 / w)


def ref_fd_grids(potential, n_levels):
    """500 and 1,001 interior points between walls at 0 and fd_x_max: the
    step exactly halved, every coarse point kept."""
    return [np.linspace(0.0, fd_x_max(potential, n_levels), n + 2)[1:-1] for n in (500, 1001)]


def ref_fd_spectrum(potential, n_levels):
    """The finite-difference eigensolve numeric_spectrum ran before the
    Rayleigh quotients, kept as the fixed-wall oracle: the levels on both
    grids of ref_fd_grids, Richardson-extrapolated to (4 fine - coarse) / 3,
    which cancels the h^2 error.  The ground level may move by at most 1e-3
    relative under the halving."""
    coarse, fine = (ref_fd_levels(potential, n_levels, x) for x in ref_fd_grids(potential, n_levels))
    assert abs(fine[0] - coarse[0]) <= 1e-3 * abs(fine[0]), f"grid too coarse: ground level {coarse[0]} -> {fine[0]}"
    return (4.0 * fine - coarse) / 3.0


def ref_moving_wall_levels(potential, n_levels, n_points=2000):
    """The moving-wall oracle: n_points refined to 2 n_points - 1 from
    x_min = 0.01 / sqrt(omega) to fd_x_max, every point interior, so its
    implicit walls sit one step outside the grid and move with the step;
    returns the refined grid's levels."""
    x_min = 0.01 / math.sqrt(float(potential.spec.omega))
    return ref_fd_levels(potential, n_levels, np.linspace(x_min, fd_x_max(potential, n_levels), 2 * n_points - 1))


# the extend ladder's mu = 5 and mu = 30 rungs at each alpha they run at
RUNG_SPECS = [(a, (1,), (1, 2)) for a in ("9/2", "11/2", "13/2")] + [
    (a, (2, 4, 6), (3, 5, 7)) for a in ("27/2", "29/2", "31/2")
]


def quotients(report, potential, n_levels=4):
    return numeric_spectrum(report, solve_eop(report, n_levels - 1), potential)


def spectrum_dev(report, potential, n_levels=4):
    expected = expected_spectrum(report.spec, n_levels)
    return max(abs(lv - float(e)) / abs(float(e)) for lv, e in zip(quotients(report, potential, n_levels), expected))


class TestSpectrum:
    def test_classical_control(self):
        spec, report, regular = pipeline("3/2")  # l = 1, omega = 1
        levels = quotients(report, build_potential(report), 3)
        for lv, e in zip(levels, [2.5, 4.5, 6.5]):  # omega*(2 nu + alpha + 1)
            assert abs(lv - e) / e < 1e-12

    def test_shifted_spectrum(self):
        spec, report, regular = pipeline("5/2", m_i=(1,))
        levels = quotients(report, build_potential(report))
        expected = [float(e) for e in expected_spectrum(spec, 4)]
        for lv, e in zip(levels, expected):
            assert abs(lv - e) / e < 1e-12
        spacings = np.diff(levels)
        assert np.allclose(spacings, 2.0, rtol=1e-12, atol=0)

    def test_non_unit_omega(self):
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,), omega=F(3, 2))
        levels = quotients(report, build_potential(report))
        for lv, e in zip(levels, expected_spectrum(spec, 4)):
            assert abs(lv - float(e)) / abs(float(e)) < 1e-12
        family = solve_eop(report, 2)
        assert orthogonality_check(report, family) < 1e-8

    def test_large_alpha(self):
        # l = 150: the centrifugal term reads ~1e7 at x = 0.01
        spec, report, regular = pipeline("301/2", m_i=(1,))
        pot = build_potential(report)
        assert spectrum_dev(report, pot) < 1e-12
        assert pot(0.01) > 1e6

    def test_ten_levels(self):
        spec, report, regular = pipeline("7/2", m_i=(1,), m_ii=(1, 2))
        assert spectrum_dev(report, build_potential(report), 10) < 1e-12

    @pytest.mark.parametrize(
        "alpha, m_i, m_ii",
        [("2/3", (), ()), ("51/100", (), ()), ("3/4", (), (1,)), ("1000001/2", (1,), ()), ("100000001/2", (1,), ())],
    )
    def test_fractional_l_and_large_alpha_read_round_off(self, alpha, m_i, m_ii):
        # the fixed-wall finite differences read 4.8e-5 at 2/3 and 1.9e-5 at
        # 51/100, where h^2 Richardson misses the wall's error, and 1.6e-5 at
        # 1000001/2, where the step is wider than the well
        spec, report, regular = pipeline(alpha, m_i, m_ii)
        assert regular and spec.l >= 0
        assert spectrum_dev(report, build_potential(report)) < 1e-12

    @pytest.mark.parametrize(
        "alpha, m_i, m_ii", [s for s in SPECTRUM_SPECS if F(s[0]) >= F(3, 2)] + RUNG_SPECS
    )
    def test_levels_match_the_moving_wall_oracle(self, alpha, m_i, m_ii):
        # each finite-difference oracle within its own error, the quotients closer to E_nu
        spec, report, regular = pipeline(alpha, m_i, m_ii)
        pot = build_potential(report)
        levels = np.array(quotients(report, pot))
        expected = np.array([float(e) for e in expected_spectrum(spec, 4)])
        for oracle, bound in ((ref_moving_wall_levels(pot, 4), 1e-5), (ref_fd_spectrum(pot, 4), 1e-6)):
            assert np.all(np.abs(levels - oracle) < bound * oracle)
            assert np.all(np.abs(levels - expected) <= np.abs(oracle - expected))

    def test_a_scaled_rational_part_breaches_the_bound(self):
        # a 0.1% fault reads 8.8e-6 here, as the finite differences read it
        spec, report, regular = pipeline("7/2", m_i=(1,), m_ii=(1, 2))
        pot = build_potential(report)
        assert spectrum_dev(report, pot) < 1e-12
        faulty = replace(pot, rat_num=Poly(ref_scale(pot.rat_num.coeffs, F(1001, 1000))))
        assert spectrum_dev(report, faulty) > 1e-6
        assert np.allclose(quotients(report, faulty), ref_fd_spectrum(faulty, 4), rtol=1e-6, atol=0)

    def test_grid_too_coarse(self):
        # a well at z = 1 narrower than the nodes, -(1/100) / ((z - 1)^2 + 10^-4):
        # the two rules disagree, as the oracle's ground level moves 1.20 -> 0.92
        # under step halving
        spec, report, regular = pipeline("3/2")
        pot = replace(
            build_potential(report), rat_num=Poly((F(-1, 100),)), rat_den=Poly((F(10001, 10000), -2, 1))
        )
        with pytest.raises(QuadratureNonconvergence, match="level 0 moved from"):
            quotients(report, pot, 2)
        with pytest.raises(AssertionError, match="grid too coarse"):
            ref_fd_spectrum(pot, 2)

    def test_a_low_order_rule_raises(self, monkeypatch):
        # the n = 200 weights replaced by the n = 8 rule on every 25th node
        def low_order(n):
            x, w = clenshaw_curtis(n)
            if n == 200:
                w = np.zeros_like(x)
                w[::25] = clenshaw_curtis(8)[1]
            return x, w

        clenshaw_curtis = spectral._clenshaw_curtis
        monkeypatch.setattr(spectral, "_clenshaw_curtis", low_order)
        spec, report, regular = pipeline("5/2", m_i=(1,), m_ii=(1,))
        with pytest.raises(QuadratureNonconvergence, match="moved from"):
            quotients(report, build_potential(report))

    @pytest.mark.parametrize(
        "alpha, m_i, m_ii, omega",
        [("3/2", (), (), 1), ("1/2", (), (1,), 1), ("5/2", (1,), (1,), F(3, 2)), ("301/2", (1,), (), 1)],
        ids=["classical", "l_0", "omega_3_2", "large_alpha"],
    )
    def test_refinement_halves_the_step_between_fixed_walls(self, alpha, m_i, m_ii, omega):
        # the fixed-wall oracle's grids
        spec, report, regular = pipeline(alpha, m_i, m_ii, omega)
        coarse, fine = ref_fd_grids(build_potential(report), 4)
        assert (len(coarse), len(fine)) == (500, 2 * 500 + 1)
        h = coarse[0]
        assert np.allclose(np.diff(coarse), h, rtol=1e-12, atol=0)
        assert np.allclose(np.diff(fine), h / 2, rtol=1e-12, atol=0)
        assert fine[0] == h / 2  # the wall at 0 stays
        assert abs(coarse[-1] + h - (fine[-1] + h / 2)) < 1e-12 * coarse[-1]  # so does the one at x_max
        assert np.array_equal(fine[1::2], coarse)  # every coarse point stays
