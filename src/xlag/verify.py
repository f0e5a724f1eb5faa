"""Enumeration of the admissible verification lattice and the exact
invariant checks run on every member: divisibility, degree/leading/
constant closed forms, the endpoint-sign theorem, nodelessness, the
origin recurrence, and the direct-Wronskian oracle.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import NotDivisible, OracleMismatch, SpecInvalid, XlagError
from .regularity import certify
from .wronskian import ORACLE_MAX_K, ExtensionSpec, check_origin_recurrence, compute_g, wronskian_direct

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


def enumerate_lattice(max_k: int = 4, max_m: int = 6, alpha_steps: int = 7, omega=1):
    """All admissible specs with k <= max_k, index values <= max_m, and
    alpha' running over half-integer steps above the admissibility bound
    (above 1 when there are no type-II seeds)."""
    omega = Fraction(omega)
    for k in range(1, max_k + 1):
        for q in range(k + 1):
            for m_i in combinations(range(1, max_m + 1), q):
                for m_ii in combinations(range(1, max_m + 1), k - q):
                    base = max(m_ii) if m_ii else 1
                    for j in range(1, alpha_steps + 1):
                        ap = base + Fraction(j, 2)
                        alpha = ap - k + 2 * q
                        yield ExtensionSpec(alpha, omega, m_i, m_ii)


@dataclass
class SpecCheck:
    """Outcome of every exact invariant for one spec; a check is None until
    it runs, and recurrence and the Wronskian oracle stay None where they
    do not apply."""

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


def check_extension(spec: ExtensionSpec, negate_const_sign: bool = False) -> SpecCheck:
    """Run all exact invariants on one spec, all of them on one computed g.

    `negate_const_sign` injects a deliberate fault into the constant-term
    prediction, used to prove the harness can fail.
    """
    out = SpecCheck(spec=spec)
    try:
        report = compute_g(spec)
        out.divisible = True
        out.mu = report.mu_predicted == report.mu_computed
        out.lead = report.lead_predicted == report.lead_computed
        const_predicted = -report.const_predicted if negate_const_sign else report.const_predicted
        out.const = const_predicted == report.const_computed
        cert = certify(report)
        expected_sign = -1 if report.sigma % 2 else 1
        out.sign_theorem = (
            cert.sign_at_zero == expected_sign and cert.sign_at_infinity == expected_sign
        )
        out.regular = cert.regular
        if spec.k - spec.q >= 2:
            out.recurrence = check_origin_recurrence(report)
        if spec.k <= ORACLE_MAX_K:
            try:
                wronskian_direct(report)
                out.wronskian_oracle = True
            except OracleMismatch:
                out.wronskian_oracle = False
    except XlagError as exc:
        # recorded, not raised, so that one bad spec cannot abort run_lattice;
        # the checks it cut short stay None, so summarize does not count them
        if out.divisible is None and isinstance(exc, NotDivisible):
            out.divisible = False
        else:
            out.failures.append(f"{type(exc).__name__}: {exc}")
    for name in CHECK_NAMES:
        if getattr(out, name) is False:
            out.failures.append(name)
    return out


def _worker(args):
    spec, fault = args
    return check_extension(spec, negate_const_sign=fault)


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


def run_lattice(
    max_k: int = 4,
    max_m: int = 6,
    alpha_steps: int = 7,
    negate_const_sign: bool = False,
    workers: int = None,
):
    """Check every lattice spec, optionally in parallel; results come back
    in enumeration order regardless of worker scheduling."""
    specs = list(enumerate_lattice(max_k, max_m, alpha_steps))
    jobs = [(s, negate_const_sign) for s in specs]
    n = worker_cap(workers)
    if n > 1 and len(jobs) > 8:
        import multiprocessing

        with multiprocessing.Pool(n) as pool:
            results = pool.map(_worker, jobs, chunksize=32)
    else:
        results = [_worker(j) for j in jobs]
    return results


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
