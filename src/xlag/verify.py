"""Enumeration of the admissible verification lattice and the exact
invariant checks run on every member: divisibility, degree/leading/
constant closed forms, the endpoint-sign theorem, nodelessness, the
origin recurrence, and the direct-Wronskian oracle.  check_report is where
every verdict is collected; every CLI subcommand runs it too.
"""
from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

from .errors import NotDivisible, OracleMismatch, XlagError
from .regularity import RegularityCertificate, certify
from .wronskian import ExtensionSpec, GReport, check_origin_recurrence, compute_g, wronskian_direct

# largest k check_report runs the direct seed-Wronskian oracle at.  The
# oracle is exact at any k, but on the 12 specs of perfbench's deep pool
# it would add 4.5-4.7 ms to a 16 ms check at k = 6, 8.1-8.7 ms to 35-38 ms
# at k = 7 and 32-37 ms to 194-206 ms at k = 8 (best of 3, caches emptied
# before each, 2 vCPUs, Python 3.11)
ORACLE_MAX_K = 5

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
    for k in range(1, min(max_k, 2 * max_m) + 1):  # each type holds at most max_m indices
        for q in range(k + 1):
            for m_i in combinations(range(1, max_m + 1), q):
                for m_ii in combinations(range(1, max_m + 1), k - q):
                    base = max(m_ii) if m_ii else 1
                    for j in range(1, alpha_steps + 1):
                        ap = base + Fraction(j, 2)
                        alpha = ap - k + 2 * q
                        yield ExtensionSpec(alpha, 1, m_i, m_ii)


def lattice_size(max_k: int = 4, max_m: int = 6, alpha_steps: int = 7) -> int:
    """How many specs enumerate_lattice yields, without building them: over all
    q, a k-seed spec has C(2 max_m, k) index lists (Vandermonde's identity)."""
    return max(alpha_steps, 0) * sum(math.comb(2 * max_m, k) for k in range(1, min(max_k, 2 * max_m) + 1))


@dataclass
class SpecCheck:
    """Verdicts of the exact invariants for one spec: `checks` maps the
    name of each check that ran to whether it held, in CHECK_NAMES order;
    a check that does not apply to the spec, or that an error cut short,
    is absent.  It holds the spec, booleans and failure names, never the
    GReport or certificate, so run_lattice's workers send back a small
    pickle."""

    spec: ExtensionSpec
    checks: dict = field(default_factory=dict)
    method: str = None  # the certificate's root-count method
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_report(report: GReport, cert: RegularityCertificate) -> SpecCheck:
    """Every exact comparison for one computed g and its certificate: the
    three closed forms, the endpoint-sign theorem and regularity (on
    admissible specs only, the theorem's hypothesis), the origin recurrence
    (where it applies) and the direct-Wronskian oracle (at k <=
    ORACLE_MAX_K).  Each check that fails is listed in `failures`.
    """
    spec, g = report.spec, report.g
    checks = {
        "divisible": True,
        "mu": report.mu_predicted == g.degree,
        "lead": report.lead_predicted == g.leading,
        "const": report.const_predicted == g.constant,
    }
    if spec.admissible:
        expected_sign = -1 if report.sigma % 2 else 1
        checks["sign_theorem"] = cert.sign_at_zero == expected_sign == cert.sign_at_infinity
        checks["regular"] = cert.regular
    if (recurrence := check_origin_recurrence(report)) is not None:
        checks["recurrence"] = recurrence
    if spec.k <= ORACLE_MAX_K:
        try:
            wronskian_direct(report)
            checks["wronskian_oracle"] = True
        except OracleMismatch:
            checks["wronskian_oracle"] = False
    return SpecCheck(spec, checks, cert.method, [name for name, held in checks.items() if not held])


def check_extension(spec: ExtensionSpec, negate_const_sign: bool = False) -> SpecCheck:
    """check_report on one spec's computed g, with any error recorded as
    the spec's failure instead of raised, so that one bad spec cannot
    abort run_lattice; the checks it cut short are absent, so summarize
    does not count them.

    `negate_const_sign` injects a deliberate fault into the constant-term
    prediction, used to prove the harness can fail.
    """
    out = SpecCheck(spec=spec)
    try:
        report = compute_g(spec)
        out.checks["divisible"] = True
        if negate_const_sign:
            report = replace(report, const_predicted=-report.const_predicted)
        return check_report(report, certify(report))
    except XlagError as exc:
        if not out.checks and isinstance(exc, NotDivisible):
            out.checks["divisible"] = False
            out.failures.append("divisible")
        else:
            out.failures.append(f"{type(exc).__name__}: {exc}")
    return out


# lattice size from which run_lattice pools by default.  Each worker fills its own
# column memos: 2 processes took 1.35-1.98x the serial time on 184-894 specs, 0.65-0.83x
# on 1,225-5,551, 0.91-1.31x and 0.69x on 1,134 and 1,155 (medians, 2 vCPUs, Python 3.11)
POOL_MIN_SPECS = 1_000


def run_lattice(max_k: int = 4, max_m: int = 6, alpha_steps: int = 7, workers: int = None):
    """Check every lattice spec on `workers` processes; where it is None,
    on every CPU this process may run on (its affinity mask, which taskset
    can narrow) once the lattice holds POOL_MIN_SPECS specs, else on one.
    Results come back in enumeration order regardless of scheduling."""
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    specs = enumerate_lattice(max_k, max_m, alpha_steps)
    if workers is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = cpus if lattice_size(max_k, max_m, alpha_steps) >= POOL_MIN_SPECS else 1
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return pool.map(check_extension, specs, chunksize=32)
    return [check_extension(s) for s in specs]


def summarize(results):
    """Pass/fail counts per invariant, specs per certificate method, failing specs."""
    counts = {name: {"checked": 0, "passed": 0} for name in CHECK_NAMES}
    for r in results:
        for name, held in r.checks.items():
            counts[name]["checked"] += 1
            counts[name]["passed"] += held
    failures = [r for r in results if not r.passed]
    methods = Counter(r.method for r in results if r.method)
    return {"total": len(results), "counts": counts, "methods": methods, "failures": failures}
