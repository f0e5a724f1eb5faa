"""Multi-step extension specifications, the structured determinant route to
the denominator polynomial g, its closed-form predictions, and the direct
seed-Wronskian oracle that cross-checks the whole construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import Inapplicable, OracleMismatch, SpecInvalid
from .exactmath import Poly, Rational, pochhammer, poly_mat_det, vandermonde
from .seeds import HALF, SeedKind, SeedSpec, laguerre, make_seed

# largest k the direct seed-Wronskian oracle runs at; its cost grows
# steeply with k
ORACLE_MAX_K = 5


def _check_indices(ms, label):
    for m in ms:
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise SpecInvalid(f"{label} indices must be positive integers, got {ms}")
    if any(a >= b for a, b in zip(ms, ms[1:])):
        raise SpecInvalid(f"{label} indices must be strictly increasing, got {ms}")


@dataclass(frozen=True)
class ExtensionSpec:
    """One multi-step extension: final alpha and omega (ints or Fractions,
    never floats) and the ordered type-I / type-II seed index lists.

    Duplicate indices are allowed across the two types but not within one;
    a repeated index within a type makes two Wronskian columns equal.  The
    empty spec (no seeds) is the identity extension.
    """

    alpha: Rational
    omega: Rational
    m_type_i: tuple
    m_type_ii: tuple

    def __post_init__(self):
        for name in ("alpha", "omega"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
                raise SpecInvalid(f"{name} must be an int or a Fraction, got {value!r}")
            object.__setattr__(self, name, Fraction(value))
        object.__setattr__(self, "m_type_i", tuple(self.m_type_i))
        object.__setattr__(self, "m_type_ii", tuple(self.m_type_ii))
        if self.omega <= 0:
            raise SpecInvalid(f"omega must be positive, got {self.omega}")
        _check_indices(self.m_type_i, "type-I")
        _check_indices(self.m_type_ii, "type-II")
        if self.alpha_prime < HALF:
            raise SpecInvalid(
                f"alpha' = alpha + k - 2q = {self.alpha_prime} < 1/2: the starting "
                "potential would have negative angular momentum"
            )

    @property
    def k(self) -> int:
        return len(self.m_type_i) + len(self.m_type_ii)

    @property
    def q(self) -> int:
        return len(self.m_type_i)

    @cached_property
    def alpha_prime(self) -> Rational:
        return self.alpha + self.k - 2 * self.q

    @property
    def l(self) -> Rational:
        return self.alpha - HALF

    @property
    def l_prime(self) -> Rational:
        return self.alpha_prime - HALF

    @property
    def all_m(self) -> tuple:
        return self.m_type_i + self.m_type_ii

    @cached_property
    def admissible(self) -> bool:
        """alpha' above every type-II index: all seeds (and, by the
        structure theory, the Wronskian) are then nodeless on (0, inf)."""
        if not self.m_type_ii:
            return True
        return self.alpha_prime > max(self.m_type_ii)

    def seed_specs(self):
        return tuple(SeedSpec(SeedKind.TYPE_I, m) for m in self.m_type_i) + tuple(
            SeedSpec(SeedKind.TYPE_II, m) for m in self.m_type_ii
        )


@dataclass(frozen=True)
class GReport:
    """Computed g plus every closed-form prediction it is checked against."""

    spec: ExtensionSpec
    g: Poly
    mu_predicted: int
    mu_computed: int
    sigma: int
    lead_predicted: Rational
    lead_computed: Rational
    const_predicted: Rational
    const_computed: Rational
    # g(0) of the sub-extensions dropping the last, the next-to-last and both
    # last type-II seeds, alpha' kept; None when k - q < 2
    sub_constants: tuple = None


def _laguerre_or_zero(n: int, a: Rational, negated: bool) -> Poly:
    # entries with m_j - i + 1 < 0 use the zero-polynomial convention
    if n < 0:
        return Poly.zero()
    return laguerre(n, a).compose_neg() if negated else laguerre(n, a)


def _gamma_entry(i: int, j: int, k: int, q: int, m: int, ap: Rational) -> Poly:
    if j <= q:
        if i <= q + 1:
            return _laguerre_or_zero(m - i + 1, ap + (i - 1), negated=True)
        return _laguerre_or_zero(m - q, ap + (i - 1), negated=True)
    # (m+1)_r is the int (m+r)! / m!
    if i <= q + 1:
        pref = math.perm(m + i - 1, i - 1)
        body = _laguerre_or_zero(m + i - 1, (1 - i) - ap, negated=False)
    else:
        pref = math.perm(m + q, q) * pochhammer((m - i + q + 2) - ap, i - q - 1)
        body = _laguerre_or_zero(m + q, (1 - i) - ap, negated=False)
    return (body * pref).shift_up(k - i)


def _gamma_matrix(k: int, q: int, ms, ap: Rational):
    return [[_gamma_entry(i, j, k, q, ms[j - 1], ap) for j in range(1, k + 1)] for i in range(1, k + 1)]


def build_gamma_matrix(spec: ExtensionSpec):
    """The k x k polynomial matrix whose determinant carries g (times a
    known power of z): rows are derivative levels, columns seed functions,
    type I first."""
    return _gamma_matrix(spec.k, spec.q, spec.all_m, spec.alpha_prime)


def predict_mu_sigma_lead(spec: ExtensionSpec):
    """Closed-form degree, sign exponent and leading coefficient of g."""
    k, q = spec.k, spec.q
    mI, mII = spec.m_type_i, spec.m_type_ii
    mu = sum(spec.all_m) - q * (q - 1) // 2 - (k - q) * (k - q - 1) // 2 + q * (k - q)
    sigma = sum(mII) + q * (k - q)
    fact = math.prod(math.factorial(m) for m in spec.all_m)
    lead = Fraction((-1) ** sigma * vandermonde(mI) * vandermonde(mII), fact)
    return mu, sigma, lead


def predict_const(spec: ExtensionSpec) -> Rational:
    """Closed-form constant term g(0), in the alpha' form: the type-I block
    contributes (a'+1)_{m_1} ... (a'+q)_{m_q-q+1} and the type-II block
    (a'-m_{q+1})_{m_{q+1}+q} ... (a'-m_k)_{m_k+2q-k+1}."""
    k, q = spec.k, spec.q
    ap = spec.alpha_prime
    _, sigma, lead = predict_mu_sigma_lead(spec)
    out = lead
    for i, m in enumerate(spec.m_type_i, start=1):
        out *= pochhammer(ap + i, m - i + 1)
    for i, m in enumerate(spec.m_type_ii, start=q + 1):
        out *= pochhammer(ap - m, m + 2 * q + 1 - i)
    return out


def compute_g(spec: ExtensionSpec) -> GReport:
    """Exact g via fraction-free determinant of the structured matrix,
    with the z-power divided out, against the closed-form predictions.

    When k - q >= 2 the one elimination also gives `sub_constants`: only
    the type-II z-shift depends on k, so each sub-extension's matrix is a
    minor `poly_mat_det` passes through, with one z per dropped seed too
    many in each type-II column.  Leading minors are such g too and never
    vanish, so a row swap is a bug and raises OracleMismatch.

    NotDivisible propagating from a z-power division means a computed
    determinant violates the structure theory - an implementation bug, not
    a property of the input.
    """
    k, q = spec.k, spec.q
    det, minors = poly_mat_det(build_gamma_matrix(spec), minors=True)
    g = det.divexact_zpow((k - q) * (k - q - 1))
    sub_constants = None
    if k - q >= 2:
        if minors is None:
            raise OracleMismatch(f"elimination of the gamma matrix of {spec} swapped rows")
        r = k - q - 1  # type-II seeds left after dropping one
        last, prev, both = minors
        sub_constants = (
            last.divexact_zpow(r * r).constant,
            prev.divexact_zpow(r * r).constant,
            both.divexact_zpow((r - 1) * r).constant,
        )
    mu, sigma, lead = predict_mu_sigma_lead(spec)
    return GReport(
        spec=spec,
        g=g,
        mu_predicted=mu,
        mu_computed=g.degree,
        sigma=sigma,
        lead_predicted=lead,
        lead_computed=g.leading,
        const_predicted=predict_const(spec),
        const_computed=g.constant,
        sub_constants=sub_constants,
    )


def wronskian_direct(report: GReport) -> Poly:
    """Direct exact Wronskian of the seeds of report.spec, checked against
    the structured route: it must equal z^(k(k-1)/2 - q(k-q)) * report.g
    exactly, or OracleMismatch is raised.

    The derivative table uses z-derivatives; the chain rule from the
    physical variable contributes an (omega*x)^(k(k-1)/2) prefactor, which
    is not part of the returned polynomial.
    """
    spec = report.spec
    k, q = spec.k, spec.q
    if k > ORACLE_MAX_K:
        raise Inapplicable(f"direct Wronskian oracle restricted to k <= {ORACLE_MAX_K}")
    cols = []
    for sd in spec.seed_specs():
        cur = make_seed(sd, spec.alpha_prime)
        col = [cur.poly]
        for _ in range(k - 1):
            cur = cur.diff()
            col.append(cur.poly)
        cols.append(col)
    w = poly_mat_det([[cols[j][i] for j in range(k)] for i in range(k)])
    if w != report.g.shift_up(k * (k - 1) // 2 - q * (k - q)):
        raise OracleMismatch(
            f"direct Wronskian disagrees with structured determinant for {spec}"
        )
    return w


def check_origin_recurrence(report: GReport) -> bool:
    """Exact identity tying report.g(0) to the constants g(0) of the three
    sub-extensions of report.spec in report.sub_constants, which drop the
    last seed (g_last), the next-to-last (g_prev) or both (g_both):

        g(0) * g_both(0) * (alpha+1) == (m_k - m_{k-1}) * g_last(0) * g_prev(0)

    Applies only when the two last seeds are type II, i.e. k - q >= 2.
    """
    spec = report.spec
    if spec.k - spec.q < 2:
        raise Inapplicable("origin recurrence needs at least two type-II seeds")
    m_last, m_prev = spec.m_type_ii[-1], spec.m_type_ii[-2]
    g0_last, g0_prev, g0_both = report.sub_constants
    lhs = report.g.constant * g0_both * (spec.alpha + 1)
    rhs = (m_last - m_prev) * g0_last * g0_prev
    return lhs == rhs
