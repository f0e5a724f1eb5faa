import random
from fractions import Fraction as F

import pytest

from xlag.errors import BoundaryRoot, ZeroPolynomial
from xlag.exactmath import Poly
from xlag.regularity import certify, count_roots_open_interval, sturm_sequence
from xlag.wronskian import ExtensionSpec, compute_g


def test_chain_linear():
    assert sturm_sequence(Poly((F(5, 2), 1))) == [Poly((F(5, 2), 1)), Poly.one()]


def test_chain_quadratic():
    assert sturm_sequence(Poly((-1, 0, 1))) == [Poly((-1, 0, 1)), Poly((0, 2)), Poly.one()]


def test_chain_applies_squarefree_reduction():
    p = Poly((-1, 1)) * Poly((-1, 1))
    chain = sturm_sequence(p)
    assert chain[0] == Poly((-1, 1))


def test_chain_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        sturm_sequence(Poly.zero())


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


def test_counts_with_negative_leading_coefficient():
    # exercises the sign bookkeeping of the pseudo-remainder chain
    assert count_roots_open_interval(Poly((-3, 4, -1)), 0) == 2  # -(z-1)(z-3)
    p = Poly.one()
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
        p = Poly.one()
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
    assert not cert.admissible
    assert cert.sign_at_zero == -1 and cert.sign_at_infinity == 1


def test_certify_identity_extension():
    report = compute_g(ExtensionSpec(F(3, 2), 1, (), ()))
    cert = certify(report)
    assert cert.regular
    assert cert.root_count_positive_axis == 0


def test_certify_reports_multiplicity_defect():
    from xlag.wronskian import GReport

    g = Poly((-1, 1)) * Poly((-1, 1)) * Poly((2, 1))
    fake = GReport(
        spec=None, g=g, mu_predicted=3, mu_computed=3, sigma=0,
        lead_predicted=1, lead_computed=1, const_predicted=g.constant,
        const_computed=g.constant, admissible=False,
    )
    cert = certify(fake)
    assert cert.repeated_root_defect == 1
    assert cert.root_count_positive_axis == 1  # the double root counts once


def test_certify_strips_vanishing_constant_term():
    from xlag.wronskian import GReport

    g = (Poly((-2, 1)) * Poly((3, 1))).shift_up(2)  # z^2 (z-2)(z+3)
    fake = GReport(
        spec=None, g=g, mu_predicted=4, mu_computed=4, sigma=0,
        lead_predicted=1, lead_computed=1, const_predicted=0,
        const_computed=0, admissible=False,
    )
    cert = certify(fake)
    assert cert.sign_at_zero == 0
    assert cert.root_count_positive_axis == 1
    assert not cert.regular
