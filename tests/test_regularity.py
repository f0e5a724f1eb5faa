import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_exactmath import ref, ref_diff, ref_divmod, ref_eval, ref_monic
from xlag.errors import BoundaryRoot, ZeroPolynomial
from xlag.exactmath import Poly, poly_gcd
from xlag.regularity import certify, count_roots_open_interval, sturm_sequence
from xlag.wronskian import ExtensionSpec, GReport, compute_g


def test_chain_linear():
    assert sturm_sequence(Poly((F(5, 2), 1))) == [Poly((F(5, 2), 1)), Poly((1,))]


def test_chain_quadratic():
    assert sturm_sequence(Poly((-1, 0, 1))) == [Poly((-1, 0, 1)), Poly((0, 2)), Poly((1,))]


def test_chain_applies_squarefree_reduction():
    # no square-free pre-pass: the chain of p and p' ends in gcd(p, p'),
    # and read where p does not vanish it counts the double root once
    p = Poly((-1, 1)) * Poly((-1, 1)) * Poly((2, 1))
    chain = sturm_sequence(p)
    assert chain[:2] == [p, p.diff()]
    assert chain[-1].monic() == Poly((-1, 1))
    assert count_roots_open_interval(p, 0) == 1
    assert count_roots_open_interval(p, -3, 2) == 2


def test_chain_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        sturm_sequence(Poly())


def test_counts_simple():
    assert count_roots_open_interval(Poly((F(5, 2), 1)), 0) == 0  # root at -5/2
    assert count_roots_open_interval(Poly((-1, 1)), 0) == 1
    # quadratic oracle: roots (1 +- sqrt(2))/2, exactly one positive
    assert count_roots_open_interval(Poly((F(-1, 8), F(-1, 2), F(1, 2))), 0) == 1


def test_counts_finite_interval():
    p = Poly((-1, 1)) * Poly((-3, 1)) * Poly((5, 1))  # roots 1, 3, -5
    assert count_roots_open_interval(p, 0, 2) == 1
    assert count_roots_open_interval(p, 0, 10) == 2
    assert count_roots_open_interval(p, 2, F(5, 2)) == 0
    assert count_roots_open_interval(p, -10, None) == 3


def test_boundary_root_raises():
    p = Poly((-1, 1))
    with pytest.raises(BoundaryRoot):
        count_roots_open_interval(p, 1, None)
    with pytest.raises(BoundaryRoot):
        count_roots_open_interval(p, 0, 1)


@pytest.mark.parametrize("lo, hi", [(2, 1), (1, 1), (None, 1), (None, None)])
def test_an_empty_or_unbounded_below_interval_is_refused(lo, hi):
    # (2, 1) read -1 roots of z - 3/2, and lo=None was read as +infinity
    with pytest.raises(ValueError):
        count_roots_open_interval(Poly((F(-3, 2), 1)), lo, hi)


def test_counts_with_negative_leading_coefficient():
    # exercises the sign bookkeeping of the pseudo-remainder chain
    assert count_roots_open_interval(Poly((-3, 4, -1)), 0) == 2  # -(z-1)(z-3)
    p = Poly((1,))
    for r in (1, 2, 4):
        p = p * Poly((-r, 1))
    assert count_roots_open_interval(-p, 0) == 3
    assert count_roots_open_interval(-p, F(3, 2), 5) == 2


def test_count_invariant_under_positive_scaling():
    p = Poly((F(-1, 8), F(-1, 2), F(1, 2)))
    for c in (F(3), F(1, 7), F(22, 3)):
        assert count_roots_open_interval(p * c, 0) == 1


def _scan_sign_changes(p, lo, hi, samples=1000):
    # independent (resolution-limited) oracle: exhaustive sign scanning
    step = F(hi - lo, samples)
    vals = [p.eval(lo + i * step) for i in range(samples + 1)]
    nonzero = [v for v in vals if v]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if (a > 0) != (b > 0))


def test_sturm_agrees_with_sign_scanning_on_random_roots():
    rng = random.Random(7)
    pool = sorted({F(n, d) for n in range(-12, 13) for d in (1, 2, 4)} - {F(0)})
    for _ in range(25):
        nroots = rng.randint(1, 6)
        roots = rng.sample(pool, nroots)
        p = Poly((1,))
        for r in roots:
            p = p * Poly((-r, 1))
        positive = sum(1 for r in roots if 0 < r < 14)
        assert count_roots_open_interval(p, 0, 14) == positive
        assert _scan_sign_changes(p, F(0), F(14)) == positive


def test_scan_matches_on_lattice_counterexamples():
    # inadmissible specs give g with genuine positive roots; the scan at
    # 1000 points must not see more sign changes than Sturm certifies
    cases = [
        ExtensionSpec(F(1, 2), 1, (), (2,)),
        ExtensionSpec(F(-3, 2), 1, (), (1, 3)),
        ExtensionSpec(F(-1, 2), 1, (1,), (2, 3)),
    ]
    for spec in cases:
        g = compute_g(spec).g
        exact = count_roots_open_interval(g, 0, 40)
        assert _scan_sign_changes(g, F(0), F(40)) == exact


def test_certify_admissible_case():
    report = compute_g(ExtensionSpec(F(5, 2), 1, (1,), (1,)))
    cert = certify(report)
    assert cert.root_count_positive_axis == 0
    assert cert.sign_at_zero == cert.sign_at_infinity == 1
    assert cert.regular and cert.signs_match


def test_certify_counterexample():
    report = compute_g(ExtensionSpec(F(1, 2), 1, (), (2,)))
    cert = certify(report)
    assert cert.root_count_positive_axis == 1
    assert not cert.regular
    assert not report.spec.admissible
    assert cert.sign_at_zero == -1 and cert.sign_at_infinity == 1


def test_certify_identity_extension():
    report = compute_g(ExtensionSpec(F(3, 2), 1, (), ()))
    cert = certify(report)
    assert cert.regular
    assert cert.root_count_positive_axis == 0


def _report(g):
    # a GReport around an arbitrary g, for certify only; the spec only
    # supplies the admissibility flag (inadmissible: alpha' = 3/2 < 2)
    return GReport(
        spec=ExtensionSpec(F(1, 2), 1, (), (2,)), g=g, mu_predicted=g.degree, sigma=0,
        lead_predicted=g.leading, const_predicted=g.constant,
    )


def test_certify_reports_multiplicity_defect():
    g = Poly((-1, 1)) * Poly((-1, 1)) * Poly((2, 1))
    cert = certify(_report(g))
    assert cert.repeated_root_defect == 1
    assert cert.root_count_positive_axis == 1  # the double root counts once


def test_certify_strips_vanishing_constant_term():
    g = (Poly((-2, 1)) * Poly((3, 1))).shift_up(2)  # z^2 (z-2)(z+3)
    cert = certify(_report(g))
    assert cert.sign_at_zero == 0
    assert cert.root_count_positive_axis == 1
    assert not cert.regular


# -- the square-free route, kept as an oracle ------------------------------
#
# The reference reduces g's core to its square-free part by a gcd, runs
# Sturm on that with Horner evaluation and takes the defect from a second
# gcd.  It runs Fraction Euclid on plain coefficient lists through
# test_exactmath's ref_* helpers, so it shares no code with Poly or the
# integer pseudo-remainder kernel behind certify.


def _euclid_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def _reference_certificate(g):
    """(distinct roots on (0, inf), deg gcd(g, g')) by the square-free route."""
    coeffs = ref(g.coeffs)
    core = coeffs[next(i for i, c in enumerate(coeffs) if c):]
    sf = ref_divmod(core, _euclid_gcd(core, ref_diff(core)))[0]
    chain = [sf]
    if len(sf) > 1:
        chain.append(ref_diff(sf))
        while len(chain[-1]) > 1:
            chain.append([-c for c in ref_divmod(chain[-2], chain[-1])[1]])
    # every root lies below the Cauchy bound, so (0, bound) is (0, inf)
    bound = 1 + max(abs(c / sf[-1]) for c in sf)

    def variations(point):
        values = [v for v in (ref_eval(p, point) for p in chain) if v]
        return sum(1 for x, y in zip(values, values[1:]) if (x > 0) != (y > 0))

    return variations(0) - variations(bound), len(_euclid_gcd(coeffs, ref_diff(coeffs))) - 1


def _inadmissible_probes(max_k, max_m):
    # alpha' = j/2 up to the largest type-II index: every spec fails the
    # admissibility bound, so g may have positive and repeated roots
    for k in range(1, max_k + 1):
        for q in range(k):
            for m_i in combinations(range(1, max_m + 1), q):
                for m_ii in combinations(range(1, max_m + 1), k - q):
                    for j in range(1, 2 * max(m_ii) + 1):
                        yield ExtensionSpec(F(j, 2) - k + 2 * q, 1, m_i, m_ii)


def test_certify_agrees_with_the_squarefree_route_on_inadmissible_probes():
    specs = list(_inadmissible_probes(3, 5))
    assert len(specs) == 1050
    defects = 0
    for spec in specs:
        report = compute_g(spec)
        cert = certify(report)
        got = (cert.root_count_positive_axis, cert.repeated_root_defect)
        assert got == _reference_certificate(report.g), spec
        defects += cert.repeated_root_defect > 0
    assert defects  # the probes do reach repeated roots


rational_roots = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(
    st.lists(st.tuples(rational_roots, st.integers(1, 3)), min_size=1, max_size=5, unique_by=lambda t: t[0]),
    st.lists(st.integers(1, 9), max_size=2),
    st.fractions(min_value=-5, max_value=5).filter(bool),
)
@settings(deadline=None, max_examples=60)
def test_certify_agrees_with_the_squarefree_route_on_planted_roots(roots, quadratics, lead):
    # (z - r)^mult for each planted root, times (z^2 + c) factors with no
    # real root, times a constant; the factors fix both answers outright
    g = Poly((lead,))
    for r, mult in roots:
        for _ in range(mult):
            g = g * Poly((-r, 1))
    for c in quadratics:
        g = g * Poly((c, 0, 1))
    positive = sum(1 for r, _ in roots if r > 0)
    defect = sum(mult - 1 for _, mult in roots) + 2 * (len(quadratics) - len(set(quadratics)))
    cert = certify(_report(g))
    assert (cert.root_count_positive_axis, cert.repeated_root_defect) == (positive, defect)
    assert _reference_certificate(g) == (positive, defect)


# -- the Descartes and VCA routes against the Sturm oracle ----------------
#
# certify sends a g whose core has sign changes to Descartes' rule or to
# bisection once a gcd mod 2^61 - 1 proves the core square-free, and to the
# Sturm chain when the proof fails.  The oracle is the Sturm chain itself:
# count_roots_open_interval on the core and deg gcd(g, g').


def _sturm_oracle(g):
    order = next(i for i, c in enumerate(g.num) if c)
    return count_roots_open_interval(g.divexact_zpow(order), 0), poly_gcd(g, g.diff()).degree


def _from_roots(*roots, extra=Poly((1,))):
    g = extra
    for r in roots:
        g = g * Poly((-r, 1))
    return g


def _certify_as_oracle(g, method):
    cert = certify(_report(g))
    assert (cert.root_count_positive_axis, cert.repeated_root_defect) == _sturm_oracle(g)
    assert cert.method == method
    assert (cert.sturm_sequence_length is None) == (method != "sturm")
    return cert


@pytest.mark.parametrize(
    "roots",
    [
        (F(1, 2), F(1, 4), F(3, 4), 1, 2),  # every root on a bisection cut
        (F(1, 2), 1, 2, 4, 8),
        (F(1, 4), F(3, 4)),
        (1, 2, -3),
        (F(1, 2), F(5, 8), F(-1, 2)),
    ],
)
def test_vca_counts_roots_on_the_bisection_points(roots):
    g = _from_roots(*roots, extra=Poly((3, 1, 1)))  # times z^2 + z + 3, no real root
    cert = _certify_as_oracle(g, "vca")
    assert cert.root_count_positive_axis == sum(1 for r in roots if r > 0)
    assert cert.repeated_root_defect == 0


@pytest.mark.parametrize("r", [F(1, 3), F(1, 2), 1, F(5, 2), 7, 1000])
def test_vca_separates_a_root_pair_two_to_the_minus_twenty_apart(r):
    g = _from_roots(r, r + F(1, 2**20), extra=Poly((1, 0, 1)))
    assert _certify_as_oracle(g, "vca").root_count_positive_axis == 2


def test_one_sign_change_is_one_root_by_descartes():
    g = _from_roots(F(7, 3), -1, -2, extra=Poly((1, 0, 1)))
    cert = _certify_as_oracle(g, "descartes")
    assert (cert.root_count_positive_axis, cert.sign_variations) == (1, 1)


def test_vca_strips_a_vanishing_constant_term():
    g = _from_roots(1, 2, -5).shift_up(3)  # z^3 (z^3 + 2z^2 - 13z + 10)
    cert = _certify_as_oracle(g, "vca")
    assert (cert.root_count_positive_axis, cert.repeated_root_defect, cert.sign_at_zero) == (2, 2, 0)


def test_a_lead_divisible_by_the_prime_falls_back_to_sturm():
    # mod 2^61 - 1 the double factor (pz + 1)^2 is 1, so without the lead
    # test the gcd mod p would call g square-free and drop its defect
    p = 2**61 - 1
    g = Poly((1, p)) * Poly((1, p)) * _from_roots(1, 3, -2)
    cert = _certify_as_oracle(g, "sturm")
    assert (cert.root_count_positive_axis, cert.repeated_root_defect, cert.sign_variations) == (2, 1, 2)


def test_a_repeated_positive_root_falls_back_to_sturm():
    g = _from_roots(2, 2, 5, -1, extra=Poly((1, 0, 1)))
    cert = _certify_as_oracle(g, "sturm")
    assert (cert.root_count_positive_axis, cert.repeated_root_defect) == (2, 1)
    assert cert.sign_variations >= 2


def test_the_nodal_rung_takes_the_vca_route():
    report = compute_g(ExtensionSpec(F(5, 2), 1, (6, 8, 10, 12), (7, 9, 11, 13)))
    cert = certify(report)
    assert (report.g.degree, cert.method, cert.root_count_positive_axis) == (80, "vca", 4)
    assert (cert.root_count_positive_axis, cert.repeated_root_defect) == _sturm_oracle(report.g)
    assert not cert.regular and cert.sturm_sequence_length is None


def test_vca_agrees_with_sturm_on_seeded_inadmissible_specs_at_k_5_and_6():
    rng = random.Random(5)
    methods = []
    while len(methods) < 40:
        k = rng.choice((5, 6))
        q = rng.randrange(k)
        m_i, m_ii = sorted(rng.sample(range(1, 9), q)), sorted(rng.sample(range(1, 9), k - q))
        spec = ExtensionSpec(F(rng.randrange(1, 2 * m_ii[-1] + 1), 2) - k + 2 * q, 1, tuple(m_i), tuple(m_ii))
        report = compute_g(spec)
        cert = certify(report)
        if cert.sign_variations:
            assert (cert.root_count_positive_axis, cert.repeated_root_defect) == _sturm_oracle(report.g), spec
            methods.append(cert.method)
    assert methods.count("vca") > 30
