"""Command-line front end: extend | verify | sample | eop.

extend, eop and sample build what they report through one function,
`extension`: compute_g, certify and verify.check_report (the checks xlag
verify runs on every lattice spec), then the family where g is certified
regular.  sample alone goes on with an irregular g (--force), solving its
levels itself.  extend and sample add the potential, which only they render.

main builds argv[0]'s subparser alone; --help and unknown commands get all four.

Exit codes: 0 ok (including regular=false reports for inadmissible but
computable specs), 1 verification failure, 2 bad input, 3 internal
inconsistency (an exact check of the exact stage failed, an exact oracle
disagreed or an internal polynomial vanished).
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import (
    GridTooCoarse,
    NotDivisible,
    NullSpaceDimension,
    OracleMismatch,
    QuadratureNonconvergence,
    SpecInvalid,
    XlagError,
    ZeroPolynomial,
)
from .regularity import certify
from .report import SCHEMA_VERSION, build_document, eop_section, spec_section
from .spectral import (
    build_potential,
    expected_spectrum,
    numeric_spectrum,
    orthogonality_check,
    solve_eop,
    wavefunction,
)
from .verify import CHECK_NAMES, check_report, run_lattice, summarize
from .wronskian import ExtensionSpec, compute_g

# exception -> (exit code, stderr prefix); the first matching row wins.  Only
# internal objects (certify's g, a Sturm chain, a monic form) raise ZeroPolynomial
EXIT_CODES = (
    ((NotDivisible, OracleMismatch, NullSpaceDimension, ZeroPolynomial), 3, "internal inconsistency"),
    ((GridTooCoarse, QuadratureNonconvergence), 1, "numeric check failed"),
    (XlagError, 2, "error"),
)


# the numeric layer takes spec rationals as floats and exact outputs grow as
# powers of them, so numerator and denominator are kept at most 2^53
RATIONAL_MAX = 2**53


def parse_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecInvalid(f"not a rational number: {text!r}") from exc
    if abs(value.numerator) > RATIONAL_MAX or value.denominator > RATIONAL_MAX:
        raise SpecInvalid(f"{text!r} is out of range: numerator and denominator must be at most 2^53")
    return value


def parse_seeds(text: str):
    """Seed list like "I:1,I:3,II:2" -> sorted index tuples per type."""
    m_i, m_ii = [], []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            kind, m = token.split(":")
            m = int(m)
        except ValueError as exc:
            raise SpecInvalid(f"bad seed token {token!r}, expected I:<m> or II:<m>") from exc
        if kind.strip().upper() == "I":
            m_i.append(m)
        elif kind.strip().upper() == "II":
            m_ii.append(m)
        else:
            raise SpecInvalid(f"unknown seed type in {token!r}")
    return tuple(sorted(m_i)), tuple(sorted(m_ii))


def _nonnegative_int(text: str) -> int:
    """argparse type for an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def spec_from_args(args) -> ExtensionSpec:
    if (args.alpha is None) == (args.l is None):
        raise SpecInvalid("exactly one of --alpha or --l is required")
    if args.alpha is not None:
        alpha = parse_rational(args.alpha)
    else:
        alpha = parse_rational(args.l) + Fraction(1, 2)
    m_i, m_ii = parse_seeds(args.seeds)
    return ExtensionSpec(alpha, parse_rational(args.omega), m_i, m_ii)


def _add_spec_flags(p):
    p.add_argument("--alpha", help="final alpha as a rational, e.g. 5/2")
    p.add_argument("--l", help="final angular momentum as a rational (alternative to --alpha)")
    p.add_argument("--omega", default="1", help="oscillator frequency (default 1)")
    p.add_argument("--seeds", default="", help='seed list like "I:1,II:2" (empty for k=0)')


def _emit(text: str, out):
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecInvalid(f"cannot write --out {out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# what `extension` builds for one spec, in build_document's argument order;
# family is None where it does not exist
Extension = namedtuple("Extension", "report cert check family")


def extension(spec: ExtensionSpec, nu_max: int | None) -> Extension:
    """compute_g -> certify -> verify.check_report, OracleMismatch if any
    exact check fails; then, given nu_max, the family of levels 0..nu_max
    where g is certified regular."""
    report = compute_g(spec)
    cert = certify(report)
    check = check_report(report, cert)
    if not check.passed:
        raise OracleMismatch(f"exact check failed ({', '.join(check.failures)}) for {spec}")
    family = solve_eop(report, nu_max) if nu_max is not None and cert.regular else None
    return Extension(report, cert, check, family)


def cmd_extend(args) -> int:
    spec = spec_from_args(args)
    ext = extension(spec, args.nu_max)
    potential = build_potential(ext.report) if spec.l >= 0 else None
    numeric = None
    if potential is not None and ext.family is not None:
        numeric = {}
        if not args.skip_numeric:
            numeric["orthogonality_max_offdiag"] = orthogonality_check(ext.report, ext.family)
            n_levels = min(args.nu_max, 3) + 1
            levels = numeric_spectrum(potential, n_levels)
            expected = expected_spectrum(spec, n_levels)
            numeric["spectrum_computed"] = levels
            numeric["spectrum_expected"] = [str(e) for e in expected]
            numeric["spectrum_max_rel_dev"] = max(abs(lv - float(e)) / abs(float(e)) for lv, e in zip(levels, expected))
    _emit(json.dumps(build_document(*ext, potential=potential, numeric=numeric), indent=2), args.out)
    return 0


def cmd_eop(args) -> int:
    ext = extension(spec_from_args(args), args.nu_max)
    if ext.family is None:
        print("spec is not regular; no orthogonal polynomial family exists", file=sys.stderr)
        return 2
    doc = {"schema": SCHEMA_VERSION, "spec": spec_section(ext.report.spec), "eop": eop_section(ext.report, ext.family)}
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def cmd_sample(args) -> int:
    spec = spec_from_args(args)
    if not 0 < args.x_min < args.x_max < math.inf:
        raise SpecInvalid(f"need 0 < --x-min < --x-max, got {args.x_min} and {args.x_max}")
    if spec.l < 0:
        raise SpecInvalid(f"final angular momentum l = {spec.l} is negative")
    ext = extension(spec, None)
    if not ext.cert.regular and not args.force:
        print("spec is not regular; pass --force to sample anyway", file=sys.stderr)
        return 2
    import numpy as np

    nus = args.wavefunctions
    family = solve_eop(ext.report, max(nus)) if nus else ()
    xs = np.linspace(args.x_min, args.x_max, args.points)
    header = ["x", "V2"] + [f"psi_{nu}" for nu in nus]
    with np.errstate(all="ignore"):  # a value past the float range is reported below, not warned of
        psis = [wavefunction(ext.report, family[nu], xs) for nu in nus]
        rows = np.array([xs, build_potential(ext.report)(xs)] + psis).T
    bad = np.argwhere(~np.isfinite(rows))  # (row, column) pairs, first row first
    if len(bad):
        raise SpecInvalid(f"{header[bad[0][1]]} is not finite at x = {xs[bad[0][0]]:.17g}; narrow --x-min/--x-max")
    lines = [",".join(header)] + [",".join(f"{val:.17g}" for val in row) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    workers = None if args.parallel else 1  # run_lattice applies XLAG_THREADS
    results = run_lattice(max_k=args.max_k, max_m=args.max_m, alpha_steps=args.alpha_grid, workers=workers)
    summary = summarize(results)
    if not summary["total"]:
        raise SpecInvalid("the lattice is empty; --max-k, --max-m and --alpha-grid must be positive")
    print(f"lattice: {summary['total']} admissible specs "
          f"(k <= {args.max_k}, m <= {args.max_m}, {args.alpha_grid} alpha steps)")
    print(f"{'invariant':<18} {'checked':>8} {'passed':>8} {'failed':>8}")
    for name in CHECK_NAMES:
        c = summary["counts"][name]
        print(f"{name:<18} {c['checked']:>8} {c['passed']:>8} {c['checked'] - c['passed']:>8}")
    print("certified by: " + ", ".join(f"{m} {summary['methods'][m]}" for m in ("sturm", "descartes", "vca")))
    if summary["failures"]:
        first = summary["failures"][0]
        print(f"FAIL: first failing spec: {first.spec} -> {first.failures}", file=sys.stderr)
        return 1
    print("all invariants hold")
    return 0


class _Parser(argparse.ArgumentParser):
    """Bad argv raises SpecInvalid, so it leaves main through EXIT_CODES
    as one error line instead of a usage block and SystemExit.  A negative
    rational such as -1/2 reads as a value, as -0.5 does, not as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(rf"{self._negative_number_matcher.pattern}|^-\d+/\d+$")

    def error(self, message):
        raise SpecInvalid(f"{self.prog}: {message}")


# subcommand -> handler, in the order --help lists them
COMMANDS = {"extend": cmd_extend, "verify": cmd_verify, "sample": cmd_sample, "eop": cmd_eop}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of command alone, or of every command if it is not one."""
    parser = _Parser(
        prog="xlag",
        description="Exact construction and certification of rationally-extended "
        "radial oscillators and their exceptional Laguerre polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = {command} if command in COMMANDS else set(COMMANDS)

    if "extend" in names:
        p = sub.add_parser("extend", help="build one extension and report everything about it")
        _add_spec_flags(p)
        p.add_argument("--nu-max", type=_nonnegative_int, default=3, help="levels of the polynomial family (default 3)")
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--skip-numeric", action="store_true", help="omit quadrature/eigensolve checks")

    if "verify" in names:
        p = sub.add_parser("verify", help="run the exact invariant lattice")
        p.add_argument("--max-k", type=int, default=4)
        p.add_argument("--max-m", type=int, default=6)
        p.add_argument("--alpha-grid", type=int, default=7, help="half-integer alpha' steps per index set")
        p.add_argument("--parallel", action="store_true", help="fan out across processes (XLAG_THREADS caps)")

    if "sample" in names:
        p = sub.add_parser("sample", help="emit CSV of the potential and wavefunctions")
        _add_spec_flags(p)
        p.add_argument("--x-min", type=float, default=0.05)
        p.add_argument("--x-max", type=float, default=8.0)
        p.add_argument("--points", type=_nonnegative_int, default=1000)
        p.add_argument("--wavefunctions", type=lambda text: [_nonnegative_int(t) for t in text.split(",") if t.strip()],
                       default="", help='comma list of nu values, e.g. "0,1,2"')
        p.add_argument("--force", action="store_true", help="sample even when not regular")
        p.add_argument("--out")

    if "eop" in names:
        p = sub.add_parser("eop", help="polynomial family coefficients only")
        _add_spec_flags(p)
        p.add_argument("--nu-max", type=_nonnegative_int, default=3)
        p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return COMMANDS[args.command](args)
    except SystemExit as exc:  # only --help leaves argparse this way, after printing
        return exc.code
    except XlagError as exc:
        code, prefix = next((code, prefix) for types, code, prefix in EXIT_CODES if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
