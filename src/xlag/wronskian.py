"""Multi-step extension specifications, the structured determinant route to
the denominator polynomial g, its closed-form predictions, and the direct
seed-Wronskian oracle that cross-checks the whole construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import OracleMismatch, SpecInvalid
from .exactmath import Poly, _int_column, poly_mat_det, vandermonde
from .seeds import HALF, laguerre_series, seed_derivatives


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

    alpha: Fraction
    omega: Fraction
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
    def alpha_prime(self) -> Fraction:
        return self.alpha + self.k - 2 * self.q

    @property
    def l(self) -> Fraction:
        return self.alpha - HALF

    @property
    def l_prime(self) -> Fraction:
        return self.alpha_prime - HALF

    @property
    def shift(self) -> Fraction:  # the extended potential's level shift C
        return (self.k - 2 * self.q) * self.omega

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


@dataclass(frozen=True)
class GReport:
    """Computed g plus every closed-form prediction check_report compares with g itself."""

    spec: ExtensionSpec
    g: Poly
    mu_predicted: int
    sigma: int
    lead_predicted: Fraction
    const_predicted: Fraction
    # g(0) of the sub-extensions dropping the last, the next-to-last and both
    # last type-II seeds, alpha' kept; None when k - q < 2
    sub_constants: tuple = None


# Every spec is built from a few seeds at one alpha', so columns recur across
# a run; each is built once, in poly_mat_det's column form (entries, den)
# with tuple entries, only ever read.  174 is the smallest size at which both
# memos reach their unbounded hit rate on the default lattice, serially.
@lru_cache(maxsize=174)
def _gamma_int_column(k: int, q: int, type_i: bool, m: int, p: int, d: int):
    """The gamma matrix's column of seed m at alpha' = p/d, by `_int_column`:
    entry i is a Laguerre series over d^n n! (a negative n is the zero
    polynomial), type I at -z, type II times its prefactor and z^(k-i)."""
    col = []
    for i in range(1, k + 1):
        if type_i:
            n = m - min(i, q + 1) + 1  # below 0: the zero polynomial, over 1
            den = d ** max(n, 0) * math.factorial(max(n, 0))
            col.append((laguerre_series(n, p + (i - 1) * d, d, negated=True), den))
            continue
        # (m+1)_r is the int (m+r)! / m!; past row q+1 the factor
        # (m-i+q+2-alpha')_t adds t d-steps over d^t
        r, t = min(i - 1, q), max(i - q - 1, 0)
        start = (m - i + q + 2) * d - p
        pref = math.perm(m + r, r) * math.prod(range(start, start + t * d, d))
        body = [pref * c for c in laguerre_series(m + r, (1 - i) * d - p, d)]
        # pref is 0 where the factor passes an integer alpha': the zero polynomial
        col.append(([0] * (k - i) + body if pref else [], d ** (m + r + t) * math.factorial(m + r)))
    return _int_column(col)


@lru_cache(maxsize=174)
def _seed_int_column(type_i: bool, m: int, p: int, d: int, k: int):
    return _int_column(seed_derivatives(type_i, m, Fraction(p, d), k))


def build_gamma_matrix(spec: ExtensionSpec):
    """The k x k polynomial matrix whose determinant carries g (times a
    known power of z) as `poly_mat_det`'s columns, one per seed function,
    type I first, rows the derivative levels: memoized tuples, keyed by all
    a column depends on, emitted straight from the Laguerre series on
    alpha' = p/d and brought to lowest terms by one content gcd each."""
    k, q, ap = spec.k, spec.q, spec.alpha_prime
    p, d = ap.numerator, ap.denominator
    return [_gamma_int_column(k, q, j < q, m, p, d) for j, m in enumerate(spec.all_m)]


def predict_mu_sigma_lead(spec: ExtensionSpec):
    """Closed-form degree, sign exponent and leading coefficient of g."""
    k, q = spec.k, spec.q
    mI, mII = spec.m_type_i, spec.m_type_ii
    mu = sum(spec.all_m) - q * (q - 1) // 2 - (k - q) * (k - q - 1) // 2 + q * (k - q)
    sigma = sum(mII) + q * (k - q)
    fact = math.prod(math.factorial(m) for m in spec.all_m)
    lead = Fraction((-1) ** sigma * vandermonde(mI) * vandermonde(mII), fact)
    return mu, sigma, lead


def predict_const(spec: ExtensionSpec, *, lead: Fraction = None) -> Fraction:
    """Closed-form constant term g(0), in the alpha' form: the type-I block
    contributes (a'+1)_{m_1} ... (a'+q)_{m_q-q+1} and the type-II block
    (a'-m_{q+1})_{m_{q+1}+q} ... (a'-m_k)_{m_k+2q-k+1}.  With a' = p/d each
    (p/d + c)_n is the int (p + cd) (p + (c+1)d) ... over d^n, so the
    product is taken on ints and reduced once, with the leading coefficient
    `lead`, predict_mu_sigma_lead's when not given."""
    q, ap = spec.q, spec.alpha_prime
    p, d = ap.numerator, ap.denominator
    lead = predict_mu_sigma_lead(spec)[2] if lead is None else lead
    factors = [(i, m - i + 1) for i, m in enumerate(spec.m_type_i, start=1)]
    factors += [(-m, m + 2 * q + 1 - i) for i, m in enumerate(spec.m_type_ii, start=q + 1)]
    num = math.prod(math.prod(range(p + c * d, p + (c + n) * d, d)) for c, n in factors)
    return Fraction(lead.numerator * num, lead.denominator * d ** sum(n for _, n in factors))


def compute_g(spec: ExtensionSpec) -> GReport:
    """Exact g via fraction-free determinant of the structured matrix,
    with the z-power divided out, against the closed-form predictions.

    When k - q >= 2, and only then, the one elimination also gives
    `sub_constants`: only the type-II z-shift depends on k, so each
    sub-extension's matrix is a minor `poly_mat_det` passes through, with
    one z per dropped seed too many in each type-II column.  Leading minors
    are such g too and never vanish, so a row swap is a bug and raises
    OracleMismatch.

    NotDivisible propagating from a z-power division means a computed
    determinant violates the structure theory - an implementation bug, not
    a property of the input.
    """
    k, q = spec.k, spec.q
    det = poly_mat_det(build_gamma_matrix(spec), minors=k - q >= 2)
    det, minors = det if k - q >= 2 else (det, None)
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
        sigma=sigma,
        lead_predicted=lead,
        const_predicted=predict_const(spec, lead=lead),
        sub_constants=sub_constants,
    )


def wronskian_direct(report: GReport) -> Poly:
    """Direct exact Wronskian of the seeds of report.spec, checked against
    the structured route: it must equal z^(k(k-1)/2 - q(k-q)) * report.g
    exactly, or OracleMismatch is raised.  It runs at any k;
    verify.check_report runs it only where it is cheap.

    The derivative table uses z-derivatives; the chain rule from the
    physical variable contributes an (omega*x)^(k(k-1)/2) prefactor, which
    is not part of the returned polynomial.  It is built on int lists by
    `seed_derivatives`, row r over den (2 ad)^r, and brought to
    `poly_mat_det`'s column form by `_int_column`, once per column key.
    """
    spec = report.spec
    k, q, p, d = spec.k, spec.q, spec.alpha_prime.numerator, spec.alpha_prime.denominator
    w = poly_mat_det([_seed_int_column(j < q, m, p, d, k) for j, m in enumerate(spec.all_m)])
    if w != report.g.shift_up(k * (k - 1) // 2 - q * (k - q)):
        raise OracleMismatch(
            f"direct Wronskian disagrees with structured determinant for {spec}"
        )
    return w


def check_origin_recurrence(report: GReport) -> bool | None:
    """Exact identity tying report.g(0) to the constants g(0) of the three
    sub-extensions of report.spec in report.sub_constants, which drop the
    last seed (g_last), the next-to-last (g_prev) or both (g_both):

        g(0) * g_both(0) * (alpha+1) == (m_k - m_{k-1}) * g_last(0) * g_prev(0)

    Applies where compute_g fills sub_constants, k - q >= 2; None elsewhere.
    """
    if report.sub_constants is None:
        return None
    spec = report.spec
    m_last, m_prev = spec.m_type_ii[-1], spec.m_type_ii[-2]
    g0_last, g0_prev, g0_both = report.sub_constants
    lhs = report.g.constant * g0_both * (spec.alpha + 1)
    rhs = (m_last - m_prev) * g0_last * g0_prev
    return lhs == rhs
