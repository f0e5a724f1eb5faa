"""Enumeration of the admissible verification lattice and the exact
invariant checks run on every member: divisibility, degree/leading/
constant closed forms, the endpoint-sign theorem, nodelessness, the
origin recurrence, and the direct-Wronskian oracle.  check_report is the
one place these comparisons are made; every CLI subcommand runs it too.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

from .errors import NotDivisible, OracleMismatch, SpecInvalid, XlagError
from .regularity import RegularityCertificate, certify
from .wronskian import ORACLE_MAX_K, ExtensionSpec, GReport, check_origin_recurrence, compute_g, wronskian_direct

CHECK_NAMES = (
    "divisible",
    "mu",
    "lead",
    "const",
    "sign_theorem",
    "regular",
    "recurrence",
    "wronskian_oracle",
)


def enumerate_lattice(max_k: int = 4, max_m: int = 6, alpha_steps: int = 7):
    """All admissible specs with k <= max_k, index values <= max_m, and
    alpha' running over half-integer steps above the admissibility bound
    (above 1 when there are no type-II seeds), at omega = 1."""
    for k in range(1, max_k + 1):
        for q in range(k + 1):
            for m_i in combinations(range(1, max_m + 1), q):
                for m_ii in combinations(range(1, max_m + 1), k - q):
                    base = max(m_ii) if m_ii else 1
                    for j in range(1, alpha_steps + 1):
                        ap = base + Fraction(j, 2)
                        alpha = ap - k + 2 * q
                        yield ExtensionSpec(alpha, 1, m_i, m_ii)


@dataclass
class SpecCheck:
    """Outcome of every exact invariant for one spec; a check is None until
    it runs, and the checks that do not apply to the spec stay None.  It
    holds the spec, booleans and failure names, never the GReport or
    certificate, so run_lattice's workers send back a small pickle."""

    spec: ExtensionSpec
    divisible: bool = None
    mu: bool = None
    lead: bool = None
    const: bool = None
    sign_theorem: bool = None
    regular: bool = None
    recurrence: bool = None
    wronskian_oracle: bool = None
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_report(report: GReport, cert: RegularityCertificate) -> SpecCheck:
    """Every exact comparison for one computed g and its certificate: the
    three closed forms, the endpoint-sign theorem and regularity (on
    admissible specs only, the theorem's hypothesis), the origin recurrence
    and the direct-Wronskian oracle (where they apply).  Checks that do
    not apply stay None; each False one is listed in `failures`.
    """
    spec = report.spec
    out = SpecCheck(
        spec=spec,
        divisible=True,
        mu=report.mu_predicted == report.mu_computed,
        lead=report.lead_predicted == report.lead_computed,
        const=report.const_predicted == report.const_computed,
    )
    if spec.admissible:
        expected_sign = -1 if report.sigma % 2 else 1
        out.sign_theorem = cert.sign_at_zero == expected_sign == cert.sign_at_infinity
        out.regular = cert.regular
    if spec.k - spec.q >= 2:
        out.recurrence = check_origin_recurrence(report)
    if spec.k <= ORACLE_MAX_K:
        try:
            wronskian_direct(report)
            out.wronskian_oracle = True
        except OracleMismatch:
            out.wronskian_oracle = False
    out.failures = [name for name in CHECK_NAMES if getattr(out, name) is False]
    return out


def check_extension(spec: ExtensionSpec, negate_const_sign: bool = False) -> SpecCheck:
    """check_report on one spec's computed g, with any error recorded as
    the spec's failure instead of raised, so that one bad spec cannot
    abort run_lattice; the checks it cut short stay None, so summarize
    does not count them.

    `negate_const_sign` injects a deliberate fault into the constant-term
    prediction, used to prove the harness can fail.
    """
    out = SpecCheck(spec=spec)
    try:
        report = compute_g(spec)
        out.divisible = True
        if negate_const_sign:
            report = replace(report, const_predicted=-report.const_predicted)
        return check_report(report, certify(report))
    except XlagError as exc:
        if out.divisible is None and isinstance(exc, NotDivisible):
            out.divisible = False
            out.failures.append("divisible")
        else:
            out.failures.append(f"{type(exc).__name__}: {exc}")
    return out


def worker_cap(requested=None) -> int:
    """Parallelism, bounded by the XLAG_THREADS environment variable."""
    n = requested or os.cpu_count() or 1
    cap = os.environ.get("XLAG_THREADS")
    if cap:
        try:
            cap = int(cap)
        except ValueError as exc:
            raise SpecInvalid(f"XLAG_THREADS must be an integer, got {cap!r}") from exc
        n = min(n, max(1, cap))
    return max(1, n)


def run_lattice(max_k: int = 4, max_m: int = 6, alpha_steps: int = 7, workers: int = None):
    """Check every lattice spec, optionally in parallel; results come back
    in enumeration order regardless of worker scheduling."""
    specs = list(enumerate_lattice(max_k, max_m, alpha_steps))
    n = worker_cap(workers)
    if n > 1 and len(specs) > 8:
        import multiprocessing

        with multiprocessing.Pool(n) as pool:
            return pool.map(check_extension, specs, chunksize=32)
    return [check_extension(s) for s in specs]


def summarize(results):
    """Pass/fail counts per invariant plus the list of failing specs."""
    counts = {}
    for name in CHECK_NAMES:
        ran = [r for r in results if getattr(r, name) is not None]
        counts[name] = {
            "checked": len(ran),
            "passed": sum(1 for r in ran if getattr(r, name)),
        }
    failures = [r for r in results if not r.passed]
    return {"total": len(results), "counts": counts, "failures": failures}
