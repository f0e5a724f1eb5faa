"""Acceptance suite: one test per criterion, each printing a PASS line with
the quantities it verified.  Criteria 1-4 share the session-scoped full
lattice run (k <= 4, index values <= 6, seven half-integer alpha' steps
above the admissibility bound)."""
import math
from fractions import Fraction as F

import numpy as np

from xlag.exactmath import Poly
from xlag.regularity import certify, count_roots_open_interval
from xlag.seeds import laguerre
from xlag.spectral import (
    build_potential,
    expected_spectrum,
    numeric_spectrum,
    orthogonality_check,
    solve_eop,
)
from xlag.wronskian import ExtensionSpec, compute_g


def _spec(alpha, m_i=(), m_ii=(), omega=1):
    return ExtensionSpec(F(alpha), omega, tuple(m_i), tuple(m_ii))


def test_criterion_1_closed_form_lattice(lattice_results):
    bad = [
        r for r in lattice_results
        if not all(r.checks[name] for name in ("divisible", "mu", "lead", "const"))
    ]
    assert not bad, f"closed-form failures: {[b.spec for b in bad[:3]]}"
    assert len(lattice_results) > 1000
    print(f"\nPASS criterion 1: divisibility and mu/lead/const closed forms exact "
          f"on all {len(lattice_results)} admissible lattice specs")


def test_criterion_2_regularity_theorem(lattice_results):
    bad = [r for r in lattice_results if not (r.checks["regular"] and r.checks["sign_theorem"])]
    assert not bad, f"regularity failures (release blocker): {[b.spec for b in bad[:3]]}"
    print(f"\nPASS criterion 2: zero positive roots and sign(g(0)) = sign(lead) "
          f"= (-1)^sigma on all {len(lattice_results)} lattice specs")


def test_criterion_3_origin_recurrence(lattice_results):
    applicable = [r for r in lattice_results if "recurrence" in r.checks]
    bad = [r for r in applicable if not r.checks["recurrence"]]
    assert not bad, f"recurrence failures: {[b.spec for b in bad[:3]]}"
    assert applicable
    print(f"\nPASS criterion 3: origin recurrence exact on all "
          f"{len(applicable)} lattice specs with k-q >= 2")


def test_criterion_4_wronskian_oracle(lattice_results):
    checked = [r for r in lattice_results if "wronskian_oracle" in r.checks]
    bad = [r for r in checked if not r.checks["wronskian_oracle"]]
    assert len(checked) == len(lattice_results)  # whole lattice is k <= 4
    assert not bad, f"oracle mismatches: {[b.spec for b in bad[:3]]}"
    print(f"\nPASS criterion 4: direct seed Wronskian reproduces the structured "
          f"determinant exactly on all {len(checked)} lattice specs")


def test_criterion_5_known_counterexample():
    spec = _spec("1/2", m_ii=(2,))
    report = compute_g(spec)
    assert report.g == Poly((F(-1, 8), F(-1, 2), F(1, 2)))
    # quadratic oracle: 8*g = 4z^2 - 4z - 1 has roots (1 +- sqrt(2))/2
    for root in ((1 + math.sqrt(2)) / 2, (1 - math.sqrt(2)) / 2):
        assert abs(4 * root * root - 4 * root - 1) < 1e-12
    assert count_roots_open_interval(report.g, 0) == 1
    cert = certify(report)
    assert cert.root_count_positive_axis == 1
    assert cert.regular is False
    print("\nPASS criterion 5: inadmissible (q=0, m=2, alpha=1/2) spec has exactly "
          "one positive root of z^2/2 - z/2 - 1/8 and regular=false")


# spread over k, q, pure and mixed types, duplicate cross-type indices
EOP_SPECS = [
    ("3/2", (), ()),
    ("5/2", (1,), ()),
    ("7/2", (2,), ()),
    ("9/2", (1, 2), ()),
    ("7/2", (1, 3), ()),
    ("3/2", (), (1,)),
    ("5/2", (), (2,)),
    ("3/2", (), (1, 2)),
    ("5/2", (), (1, 3)),
    ("7/2", (), (2, 3)),
    ("5/2", (1,), (1,)),
    ("7/2", (2,), (1,)),
    ("5/2", (1,), (2,)),
    ("5/2", (1,), (1, 2)),
    ("7/2", (2,), (1, 3)),
    ("9/2", (1, 2), (1,)),
    ("7/2", (1, 2), (2,)),
    ("9/2", (1, 3), (1, 2)),
    ("11/2", (1, 2, 3), (1,)),
    ("5/2", (), (1, 2, 3)),
]


def test_criterion_6_eop_suite():
    worst = 0.0
    for alpha, m_i, m_ii in EOP_SPECS:
        spec = _spec(alpha, m_i, m_ii)
        assert spec.admissible, spec
        report = compute_g(spec)
        family = solve_eop(report, 5)  # enforces 1-d null spaces
        for nu in range(6):
            assert family[nu].degree == report.g.degree + nu
        worst = max(worst, orthogonality_check(report, family))
    assert worst < 1e-8
    print(f"\nPASS criterion 6: {len(EOP_SPECS)} specs, nu <= 5: null spaces "
          f"one-dimensional, degrees mu+nu, max off-diagonal {worst:.2e} < 1e-8")


SPECTRUM_SPECS = [
    ("1/2", (), ()),  # l = 0: the wall at x = 0 is the physical one
    ("3/2", (), ()),  # classical control
    ("5/2", (1,), ()),
    ("5/2", (), (1,)),
    ("5/2", (1,), (1,)),
    ("7/2", (1,), (1, 2)),
]


def test_criterion_7_numeric_spectrum():
    worst = 0.0
    for alpha, m_i, m_ii in SPECTRUM_SPECS:
        spec = _spec(alpha, m_i, m_ii)
        report = compute_g(spec)
        pot = build_potential(report)
        levels = numeric_spectrum(pot, 4)  # includes halving check
        for lv, e in zip(levels, expected_spectrum(spec, 4)):
            dev = abs(lv - float(e)) / abs(float(e))
            worst = max(worst, dev)
    assert worst < 1e-6
    print(f"\nPASS criterion 7: finite-difference levels nu <= 3 match "
          f"omega(2nu+alpha+1)+(k-2q)omega on {len(SPECTRUM_SPECS)} specs, "
          f"worst relative deviation {worst:.2e} < 1e-6")


def test_criterion_8_classical_reduction():
    spec = _spec("3/2")
    report = compute_g(spec)
    assert report.g == Poly((1,))
    assert certify(report).regular
    family = solve_eop(report, 6)
    for nu in range(7):
        assert family[nu] == laguerre(nu, spec.alpha).monic()
    pot = build_potential(report)
    assert pot.shift == 0 and not pot.rat_num
    xs = np.linspace(0.2, 7.0, 101)
    # omega^2 x^2 / 4 + l(l+1) / x^2 at l = 1, omega = 1
    assert np.array_equal(pot(xs), 0.25 * xs * xs + 2.0 / (xs * xs))
    print("\nPASS criterion 8: empty extension reproduces monic Laguerre "
          "polynomials exactly and the unextended oscillator potential")
