"""Machine-readable report documents.

Exact rationals serialize as strings like "105/8" so nothing is lost in
transit; floats are confined to the "numeric" section.  Documents are
plain JSON-compatible dicts, so serialization round-trips field-exact.
"""
from __future__ import annotations

from dataclasses import asdict

from .exactmath import Poly
from .regularity import RegularityCertificate
from .verify import SpecCheck
from .wronskian import ExtensionSpec, GReport

SCHEMA_VERSION = 1


def poly_coeffs(p: Poly):
    return [str(c) for c in p.coeffs]


def spec_section(spec: ExtensionSpec) -> dict:
    return {
        "alpha": str(spec.alpha),
        "l": str(spec.l),
        "omega": str(spec.omega),
        "m_type_i": list(spec.m_type_i),
        "m_type_ii": list(spec.m_type_ii),
        "k": spec.k,
        "q": spec.q,
        "alpha_prime": str(spec.alpha_prime),
        "l_prime": str(spec.l_prime),
        "admissible": spec.admissible,
    }


def g_section(report: GReport, check: SpecCheck) -> dict:
    g = report.g
    return {
        "coefficients": poly_coeffs(g),
        "degree": g.degree,
        "sigma": report.sigma,
        "divisible": check.checks["divisible"],
        "mu": {"predicted": report.mu_predicted, "computed": g.degree},
        "leading": {"predicted": str(report.lead_predicted), "computed": str(g.leading)},
        "constant": {"predicted": str(report.const_predicted), "computed": str(g.constant)},
        "predictions_hold": check.checks["mu"] and check.checks["lead"] and check.checks["const"],
    }


def eop_section(report: GReport, family) -> dict:
    return {
        "mu": report.g.degree,
        "levels": [{"nu": nu, "degree": y.degree, "coefficients": poly_coeffs(y)} for nu, y in enumerate(family)],
    }


def build_document(
    report: GReport,
    cert: RegularityCertificate,
    check: SpecCheck,
    family=None,
    potential=None,
    numeric=None,
) -> dict:
    """The extend report; `check` is verify.check_report's verdict on
    report and cert.  Each value is read from the object that owns it."""
    doc = {
        "schema": SCHEMA_VERSION,
        "spec": spec_section(report.spec),
        "g": g_section(report, check),
        "certificate": {**asdict(cert), "admissible": report.spec.admissible},
        "origin_recurrence": check.checks.get("recurrence"),
    }
    if potential is not None:
        doc["potential"] = {
            "shift": str(potential.spec.shift),
            "rational_numerator": poly_coeffs(potential.rat_num),
            "rational_denominator": poly_coeffs(potential.rat_den),
            "certified_regular": cert.regular,
        }
    if family is not None:
        doc["eop"] = eop_section(report, family)
    doc["numeric"] = numeric
    return doc
