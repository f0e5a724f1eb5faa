"""Exact real-root certification on the positive half-line, and the
endpoint-sign certificate for the denominator polynomial.

`certify` counts g's positive roots with the Sturm chain where g has one
coefficient sign or a gcd mod 2^61 - 1 cannot prove it square-free, else by
Descartes' rule at one sign change and Vincent-Collins-Akritas bisection at
more.  Everything here is exact: the point of the module is certification,
so tolerance-based root finding would defeat it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundaryRoot, ZeroPolynomial
from .exactmath import Poly, _int_coprime_mod, _int_taylor1, remainder_chain, sign
from .wronskian import GReport


def sturm_sequence(p: Poly):
    """Sturm chain of p and p', ending in gcd(p, p') up to a constant.

    At any point where p does not vanish its sign variations count the
    distinct roots of p, repeated ones once, so no square-free reduction
    is needed (Sturm's theorem in its general form).
    """
    if not p:
        raise ZeroPolynomial("Sturm sequence of the zero polynomial")
    return remainder_chain(p, p.diff())


def _variations(values) -> int:
    nonzero = [v for v in values if v]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if (x > 0) != (y > 0))


def count_roots_open_interval(p: Poly, lo, hi=None) -> int:
    """Distinct real roots of p in (lo, hi), hi=None meaning +infinity.

    Raises ValueError unless lo is finite and below hi, and BoundaryRoot
    if either finite endpoint is itself a root; the callers that could hit
    this (g with vanishing constant term) strip the z-power first.
    """
    if lo is None or hi is not None and Fraction(lo) >= Fraction(hi):
        raise ValueError(f"need a finite lo below hi, got ({lo}, {hi})")
    chain = sturm_sequence(p)

    def variations_at(point, name):
        if point is None:
            return _variations([q.leading for q in chain])
        point = Fraction(point)
        if p.eval(point) == 0:
            raise BoundaryRoot(f"{name} endpoint {point} is a root")
        return _variations([q.eval(point) for q in chain])

    return variations_at(lo, "lower") - variations_at(hi, "upper")


def _vca_count(a) -> int:
    """Positive roots of the square-free int polynomial a, a(0) != 0
    (Collins & Akritas 1976): its roots in (0, 1), those of z^n a(1/z) in
    (0, 1), and a root at 1.  On (0, 1) Descartes' rule on
    (z + 1)^n q(1/(z + 1)) decides 0 or 1 roots, and more are split at 1/2
    into 2^n q(z/2) and its Taylor shift.  The halves and the cut hold at
    most the whole's sign changes, so a left half that has them all leaves
    no root to the right."""
    n, count = len(a) - 1, int(not sum(a))
    test = lambda q: (q, _variations(_int_taylor1(q[::-1])))  # q, its sign changes on (0, 1)
    stack = [test(a), test(a[::-1])]
    while stack:
        q, v = stack.pop()
        if v < 2:
            count += v
            continue
        left, v_left = test([c << (n - i) for i, c in enumerate(q)])
        cut = not sum(left)  # 2^n q(1/2) = 0
        count += cut
        stack.append((left, v_left))
        if v_left + cut < v:
            stack.append(test(_int_taylor1(left)))
    return count


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
    sturm_sequence_length: int | None  # None where no chain ran
    signs_match: bool
    repeated_root_defect: int
    method: str  # "sturm", "descartes" or "vca": what counted the roots
    sign_variations: int  # of the core's coefficients


def certify(report: GReport) -> RegularityCertificate:
    """Root-count and endpoint-sign certificate for report.g."""
    g = report.g
    if not g:
        raise ZeroPolynomial("cannot certify the zero polynomial")
    # den > 0, so the numerators carry the signs
    sign_zero = sign(g.num[0])
    sign_inf = sign(g.num[-1])
    # a vanishing constant term (never the case for admissible specs) is
    # handled exactly by stripping the z-power before counting
    order = next(i for i, c in enumerate(g.num) if c)
    core = g.divexact_zpow(order)
    variations = _variations(core.num)
    # with p = 2^61 - 1 not dividing lead(core), a common factor of core and
    # core' keeps its degree mod p: a constant gcd mod p proves core square-free
    chain, a, p = None, core.num, 2**61 - 1
    if variations and a[-1] % p and _int_coprime_mod(a, [i * c for i, c in enumerate(a) if i], p):
        method, roots, defect = ("descartes", 1, 0) if variations == 1 else ("vca", _vca_count(a), 0)
    else:
        method, chain = "sturm", sturm_sequence(core)
        # core(0) != 0, so the chain is read at 0 from its constant terms
        roots = _variations([q.num[0] for q in chain]) - _variations([q.num[-1] for q in chain])
        defect = chain[-1].degree  # the chain ends in gcd(core, core')
    regular = roots == 0 and sign_zero != 0
    return RegularityCertificate(
        root_count_positive_axis=roots,
        sign_at_zero=sign_zero,
        sign_at_infinity=sign_inf,
        regular=regular,
        sturm_sequence_length=len(chain) if chain else None,
        signs_match=sign_zero != 0 and sign_zero == sign_inf,
        repeated_root_defect=defect + max(order - 1, 0),  # gcd(g, g') = z^(order-1) gcd(core, core')
        method=method,
        sign_variations=variations,
    )
