"""Exact real-root certification on the positive half-line via Sturm
sequences, and the endpoint-sign certificate for the denominator
polynomial.

Everything here is exact rational arithmetic: the point of the module is
certification, so tolerance-based root finding would defeat it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundaryRoot, ZeroPolynomial
from .exactmath import (
    Poly,
    _int_make_primitive,
    _int_prem,
    _int_primitive,
    poly_gcd,
    sign,
    squarefree_part,
)
from .wronskian import GReport


def sturm_sequence(p: Poly):
    """Canonical Sturm chain of the square-free part of p.

    Chain members after the first two are rescaled by positive constants
    to primitive integer form; sign variations, which is all the chain is
    read for, are unaffected, while coefficient growth stays tame.
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm sequence of the zero polynomial")
    p0 = squarefree_part(p)
    chain = [p0]
    if p0.degree == 0:
        return chain
    p1 = p0.diff()
    chain.append(p1)
    a = _int_primitive(list(p0.coeffs))
    b = _int_primitive(list(p1.coeffs))
    while len(b) > 1:
        r = _int_prem(a, b)
        if not r:
            # cannot happen for a square-free start, but fail loudly
            raise ZeroPolynomial("Sturm chain hit a zero remainder")
        r = _int_make_primitive([-c for c in r])
        chain.append(Poly(tuple(Fraction(c) for c in r)))
        a, b = b, r
    return chain


def _variations(values) -> int:
    nonzero = [v for v in values if v]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x > 0) != (y > 0))


def _variations_at(chain, point) -> int:
    return _variations([p.eval(point) for p in chain])


def _variations_at_infinity(chain) -> int:
    return _variations([p.leading for p in chain])


def count_roots_open_interval(p: Poly, lo, hi=None) -> int:
    """Distinct real roots of p in (lo, hi), hi=None meaning +infinity.

    Raises BoundaryRoot if either finite endpoint is itself a root; the
    callers that could hit this (g with vanishing constant term) strip the
    z-power first.
    """
    chain = sturm_sequence(p)
    return _count_from_chain(chain, lo, hi)


def _count_from_chain(chain, lo, hi=None) -> int:
    lo = Fraction(lo)
    if chain[0].eval(lo) == 0:
        raise BoundaryRoot(f"lower endpoint {lo} is a root")
    v_lo = _variations_at(chain, lo)
    if hi is None:
        v_hi = _variations_at_infinity(chain)
    else:
        hi = Fraction(hi)
        if chain[0].eval(hi) == 0:
            raise BoundaryRoot(f"upper endpoint {hi} is a root")
        v_hi = _variations_at(chain, hi)
    return v_lo - v_hi


@dataclass(frozen=True)
class RegularityCertificate:
    """Exact shadow of the disconjugacy argument: g is nodeless on the
    positive half-line iff the root count is zero and g(0) does not
    vanish.  For admissible specs the two endpoint signs must agree; a
    counterexample would be a release blocker."""

    root_count_positive_axis: int
    sign_at_zero: int
    sign_at_infinity: int
    regular: bool
    admissible: bool
    sturm_sequence_length: int
    signs_match: bool
    repeated_root_defect: int


def certify(report: GReport) -> RegularityCertificate:
    """Root-count and endpoint-sign certificate for report.g."""
    g = report.g
    if g.is_zero:
        raise ZeroPolynomial("cannot certify the zero polynomial")
    sign_zero = sign(g.constant)
    sign_inf = sign(g.leading)
    # a vanishing constant term (never the case for admissible specs) is
    # handled exactly by stripping the z-power before counting
    order = next(i for i, c in enumerate(g.coeffs) if c)
    core = g.divexact_zpow(order)
    chain = sturm_sequence(core)
    roots = _count_from_chain(chain, 0, None)
    regular = roots == 0 and sign_zero != 0
    defect = poly_gcd(g, g.diff()).degree
    return RegularityCertificate(
        root_count_positive_axis=roots,
        sign_at_zero=sign_zero,
        sign_at_infinity=sign_inf,
        regular=regular,
        admissible=report.admissible,
        sturm_sequence_length=len(chain),
        signs_match=sign_zero != 0 and sign_zero == sign_inf,
        repeated_root_defect=defect if defect is not None else 0,
    )
