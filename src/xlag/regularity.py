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
from .exactmath import Poly, remainder_chain, sign
from .wronskian import GReport


def sturm_sequence(p: Poly):
    """Sturm chain of p and p', ending in gcd(p, p') up to a constant.

    At any point where p does not vanish its sign variations count the
    distinct roots of p, repeated ones once, so no square-free reduction
    is needed (Sturm's theorem in its general form).
    """
    if p.is_zero:
        raise ZeroPolynomial("Sturm sequence of the zero polynomial")
    return remainder_chain(p, p.diff())


def _variations(values) -> int:
    nonzero = [v for v in values if v]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x > 0) != (y > 0))


def count_roots_open_interval(p: Poly, lo, hi=None) -> int:
    """Distinct real roots of p in (lo, hi), hi=None meaning +infinity.

    Raises BoundaryRoot if either finite endpoint is itself a root; the
    callers that could hit this (g with vanishing constant term) strip the
    z-power first.
    """
    chain = sturm_sequence(p)

    def variations_at(point, name):
        if point is None:
            return _variations([q.leading for q in chain])
        point = Fraction(point)
        if p.eval(point) == 0:
            raise BoundaryRoot(f"{name} endpoint {point} is a root")
        return _variations([q.eval(point) for q in chain])

    return variations_at(lo, "lower") - variations_at(hi, "upper")


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
    sturm_sequence_length: int
    signs_match: bool
    repeated_root_defect: int


def certify(report: GReport) -> RegularityCertificate:
    """Root-count and endpoint-sign certificate for report.g."""
    g = report.g
    if g.is_zero:
        raise ZeroPolynomial("cannot certify the zero polynomial")
    # den > 0, so the numerators carry the signs
    sign_zero = sign(g.num[0])
    sign_inf = sign(g.num[-1])
    # a vanishing constant term (never the case for admissible specs) is
    # handled exactly by stripping the z-power before counting
    order = next(i for i, c in enumerate(g.num) if c)
    core = g.divexact_zpow(order)
    chain = sturm_sequence(core)
    # core(0) != 0, so the chain is read at 0 from its constant terms
    roots = _variations([q.num[0] for q in chain]) - _variations([q.num[-1] for q in chain])
    regular = roots == 0 and sign_zero != 0
    # gcd(g, g') = z^(order-1) gcd(core, core'), and the chain ends in the latter
    defect = chain[-1].degree + max(order - 1, 0)
    return RegularityCertificate(
        root_count_positive_axis=roots,
        sign_at_zero=sign_zero,
        sign_at_infinity=sign_inf,
        regular=regular,
        sturm_sequence_length=len(chain),
        signs_match=sign_zero != 0 and sign_zero == sign_inf,
        repeated_root_defect=defect,
    )
