import contextlib
import io
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlag
from test_acceptance import SPECTRUM_SPECS
from test_exactmath import cycle_rows
from test_spectral import RUNG_SPECS
from xlag import cli, errors, exactmath, regularity, spectral, verify, wronskian
from xlag.errors import NotDivisible, QuadratureNonconvergence, SpecInvalid, ZeroPolynomial
from xlag.exactmath import Poly
from xlag.report import build_document


# child interpreters import xlag from where this process imported it
SRC = str(Path(xlag.__file__).resolve().parents[1])
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_extend_worked_example(capsys):
    code, out, _ = run_cli(
        ["extend", "--alpha", "5/2", "--seeds", "I:1,II:1", "--nu-max", "2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["g"]["mu"] == {"predicted": 3, "computed": 3}
    assert doc["certificate"]["regular"] is True
    assert doc["g"]["coefficients"] == ["105/8", "63/4", "15/2", "1"]
    assert doc["eop"]["levels"][0]["degree"] == 3
    assert doc["numeric"]["orthogonality_max_offdiag"] < 1e-8
    assert doc["numeric"]["spectrum_max_rel_dev"] < 1e-6
    # lossless round trip
    assert json.loads(json.dumps(doc)) == doc


@pytest.mark.parametrize("seeds", ["", "II:1", "II:1,II:2"])
def test_extend_at_l_0_passes_its_numeric_check(seeds, capsys):
    # with its walls one step outside a grid from x = 0.01 the solve moved
    # the l = 0 ground level by 1.6e-3 under step halving, and exited 1
    code, out, err = run_cli(["extend", "--alpha", "1/2", "--seeds", seeds], capsys)
    assert code == 0, err
    assert json.loads(out)["numeric"]["spectrum_max_rel_dev"] < 1e-6


@pytest.mark.parametrize("alpha, m_i, m_ii", SPECTRUM_SPECS + RUNG_SPECS)
def test_extend_passes_its_spectrum_check(alpha, m_i, m_ii, capsys):
    seeds = ",".join([f"I:{m}" for m in m_i] + [f"II:{m}" for m in m_ii])
    code, out, err = run_cli(["extend", "--alpha", alpha, "--seeds", seeds], capsys)
    assert code == 0, err
    assert json.loads(out)["numeric"]["spectrum_max_rel_dev"] <= cli.SPECTRUM_BOUND


@pytest.mark.parametrize("factor", [Fraction(11, 10), Fraction(1001, 1000)])
def test_a_faulty_rational_part_fails_the_spectrum_check(factor, capsys, monkeypatch):
    # unjudged, x 11/10 exited 0 at a relative deviation of 9.8e-4
    def faulty(report):
        pot = build_potential(report)
        return replace(pot, rat_num=Poly(tuple(c * factor for c in pot.rat_num.coeffs)))

    build_potential = spectral.build_potential
    monkeypatch.setattr(cli, "build_potential", faulty)
    code, out, err = run_cli(["extend", "--alpha", "7/2", "--seeds", "I:1,II:1,II:2"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("numeric check failed: the levels deviate from ") and err.count("\n") == 1


def test_extend_inadmissible_reports_irregular(capsys):
    code, out, _ = run_cli(["extend", "--alpha", "1/2", "--seeds", "II:2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["regular"] is False
    assert doc["certificate"]["root_count_positive_axis"] == 1
    assert doc["spec"]["admissible"] is False
    assert doc["potential"]["certified_regular"] is False
    assert "eop" not in doc


def test_extend_classical(capsys):
    code, out, _ = run_cli(
        ["extend", "--alpha", "3/2", "--seeds", "", "--skip-numeric"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["g"]["coefficients"] == ["1"]
    assert doc["spec"]["k"] == 0
    assert doc["certificate"]["regular"] is True


def test_extend_accepts_l_flag(capsys):
    code, out, _ = run_cli(["extend", "--l", "2", "--seeds", "I:1", "--skip-numeric"], capsys)
    assert code == 0
    assert json.loads(out)["spec"]["alpha"] == "5/2"


def test_extend_seed_order_insensitive(capsys):
    code, out, _ = run_cli(
        ["extend", "--alpha", "9/2", "--seeds", "II:2,I:3,I:1,II:4", "--skip-numeric"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["m_type_i"] == [1, 3]
    assert doc["spec"]["m_type_ii"] == [2, 4]


@pytest.mark.parametrize(
    "args",
    [
        ["extend", "--alpha", "bogus", "--seeds", ""],
        ["extend", "--alpha", "5/2", "--seeds", "I:0"],
        ["extend", "--alpha", "5/2", "--seeds", "X:1"],
        ["extend", "--alpha", "5/2", "--seeds", "I:1,I:1"],
        ["extend", "--alpha", "5/2", "--l", "2", "--seeds", ""],
        ["extend", "--seeds", "I:1"],
        ["extend", "--alpha", "3/2", "--omega", "0", "--seeds", ""],
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "-1"],
        ["eop", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "-1"],
        ["verify", "--max-m", "1001"],
        ["verify", "--max-k", "0"],
        # past LATTICE_MAX (4.7e12 and 1e10 specs): refused before a spec is built
        ["verify", "--max-m", "1000"],
        ["verify", "--max-k", "2", "--max-m", "2", "--alpha-grid", "1000000000"],
        # past POINTS_MAX: numpy would ask for 74.5 GiB
        ["sample", "--alpha", "5/2", "--seeds", "I:1", "--points", "10000000000"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--x-min", "0"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--points", "-1"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--wavefunctions", "0,x"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--wavefunctions", "-1"],
        # past NU_MAX: refused before the exact solve, which ran out of memory at nu-max 1000
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "301"],
        ["eop", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "1000"],
        ["sample", "--alpha", "5/2", "--seeds", "I:1", "--wavefunctions", "0,301"],
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "abc"],
        [],
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--bogus"],
        ["sample", "--alpha", "1e999", "--seeds", "I:1", "--points", "16"],
        ["eop", "--alpha", "1e300", "--seeds", "I:1,II:1", "--nu-max", "14"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--x-max", "inf"],
        # past INDEX_MAX: refused before the exact layer, which would take minutes or run out of memory
        ["eop", "--alpha", "5/2", "--seeds", "I:1001", "--nu-max", "0"],
        ["eop", "--alpha", "5/2", "--seeds", "I:99999999999999999999", "--nu-max", "0"],
        # past K_MAX: refused before the exact layer, where II:1..24 ran for over a minute
        ["eop", "--alpha", "201/2", "--seeds", ",".join(f"II:{m}" for m in range(1, 25)), "--nu-max", "0"],
        ["extend", "--alpha", "5/2", "--seeds", ",".join(f"I:{m}" for m in range(1, cli.K_MAX + 2))],
    ],
)
def test_bad_input_exits_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "flag, rest",
    [
        ("--alpha", ["eop", "--seeds", "II:1", "--nu-max", "1"]),
        ("--l", ["eop", "--seeds", "II:1", "--nu-max", "1"]),
        ("--omega", ["extend", "--alpha", "5/2", "--seeds", "I:1", "--skip-numeric"]),
    ],
)
def test_a_negative_rational_reads_as_a_value(flag, rest, capsys):
    # "--alpha -1/2" is the value -1/2, as "--alpha=-1/2" and "--alpha -0.5" are
    spaced = run_cli(rest + [flag, "-1/2"], capsys)
    joined = run_cli(rest + [f"{flag}=-1/2"], capsys)
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_help_exits_0(capsys):
    assert cli.main(["extend", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: xlag extend")


def _parse(parser, argv):
    """What parsing argv gives: the namespace, the help text printed, or
    the error raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "args", vars(parser.parse_args(argv))
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()
    except SpecInvalid as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "argv",
    [
        ["extend", "--alpha", "5/2", "--seeds", "I:1,II:1", "--nu-max", "2", "--skip-numeric"],
        ["extend", "--l=-1/2", "--omega", "3/2", "--out", "x.json"],
        ["verify", "--max-k", "2", "--alpha-grid", "3"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--x-min", "0.5", "--wavefunctions", "0,2", "--force"],
        ["eop", "--alpha", "-1/2", "--seeds", "II:1"],
        ["extend", "--bogus"],
        ["extend", "--nu-max", "abc"],
        ["sample", "--points", "-1"],
        ["eop", "--alpha"],
        ["verify", "extend"],
        ["extend", "--alpha", "5/2", "-h"],
    ]
    + [[name, "--help"] for name in cli.COMMANDS],
)
def test_the_narrowed_parser_parses_as_the_full_one(argv):
    # main builds only the subparser of argv[0]; the full parser is its oracle
    assert _parse(cli.build_parser(argv[0]), argv) == _parse(cli.build_parser(), argv)


def test_main_builds_only_the_subparser_it_runs(monkeypatch, capsys):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build_parser(command))
    assert cli.main(["eop", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "1"]) == 0
    assert cli.main(["bogus"]) == 2
    assert built == ["eop", "bogus"]
    assert build_parser("eop").format_usage() == "usage: xlag [-h] {eop} ...\n"
    assert build_parser("bogus").format_usage() == build_parser().format_usage()


# argv for the fuzz below: each flag draws from its own values, well-formed
# or not, and stray tokens break the flag/value pairing; every bound keeps
# a call cheap (k <= 3, indices <= 4, nu <= 5, at most 50 points)
FUZZ_VALUES = {
    "--alpha": ["5/2", "3/2", "1/2", "7/2", "-1/2", "0", "1/0", "abc", "", "2.5", "1e999"],
    "--l": ["2", "1", "-1", "1/2", "x"],
    "--omega": ["1", "2", "1/3", "0", "-1", "nan"],
    "--seeds": ["", "I:1", "II:2", "I:1,II:1", "I:2,II:1,II:3", "I:4,II:4", "I:0", "X:1",
                "I:1,I:1", "I:x", "II:", ",", "I:1:2", "I:99999999999999999999"],
    "--nu-max": ["0", "2", "5", "-1", "abc", "1.5", ""],
    "--points": ["16", "50", "0", "-1", "x"],
    "--x-min": ["0.05", "0.5", "0", "-1", "nan", "inf", "y"],
    "--x-max": ["8", "2", "0.01", "inf", "nan", "z"],
    "--wavefunctions": ["", "0", "0,1", "5", "-1", "0,x", ",,"],
}
FUZZ_COMMANDS = {
    "extend": ["--omega", "--seeds", "--nu-max"],
    "eop": ["--omega", "--seeds", "--nu-max"],
    "sample": ["--omega", "--seeds", "--points", "--x-min", "--x-max", "--wavefunctions"],
}
FUZZ_STRAY = ["--force", "--bogus", "--alpha", "--nu-max", "5/2", "verify"]


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = [command] + (["--skip-numeric"] if command == "extend" else [])
    for flag in (draw(st.sampled_from(["--alpha", "--alpha", "--l"])), "--seeds"):
        argv += [flag, draw(st.sampled_from(FUZZ_VALUES[flag]))]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 7)):
            flag = draw(st.sampled_from(FUZZ_COMMANDS[command]))
            argv += [flag, draw(st.sampled_from(FUZZ_VALUES[flag]))]
        else:
            argv.append(draw(st.sampled_from(FUZZ_STRAY)))
    return argv


@given(fuzz_argv())
@settings(deadline=None, max_examples=100)
def test_argv_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    # every nonzero status is one line of stderr under its error type's prefix
    prefix = {1: "numeric check failed: ", 2: "error: ", 3: "internal inconsistency: "}.get(code)
    if prefix:
        assert err.getvalue().startswith(prefix) and err.getvalue().count("\n") == 1, (argv, err.getvalue())


@pytest.mark.parametrize("command", ["extend", "eop", "sample"])
def test_internal_inconsistency_exits_3(command, capsys, monkeypatch):
    # every subcommand that computes g runs verify's exact checks on it
    def corrupted(spec):
        report = compute_g_real(spec)
        return replace(report, const_predicted=report.const_predicted + 1)

    compute_g_real = wronskian.compute_g
    monkeypatch.setattr(cli, "compute_g", corrupted)
    code, out, err = run_cli([command, "--alpha", "5/2", "--seeds", "I:1"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal inconsistency: exact check failed (const) for ")


@pytest.mark.parametrize(
    "alpha, seeds, code", [("5/2", "I:1,II:1", 3), ("1/2", "II:2", 0)], ids=["admissible", "inadmissible"]
)
def test_a_flipped_endpoint_sign_fails_only_where_the_theorem_applies(alpha, seeds, code, capsys, monkeypatch):
    # g(0) must have the sign (-1)^sigma of g's leading term only on
    # admissible specs; at alpha = 1/2, II:2 is the inadmissible counterexample
    def flipped(report):
        cert = certify_real(report)
        return replace(cert, sign_at_zero=-cert.sign_at_zero)

    certify_real = cli.certify
    monkeypatch.setattr(cli, "certify", flipped)
    result, out, err = run_cli(["extend", "--alpha", alpha, "--seeds", seeds, "--skip-numeric"], capsys)
    assert result == code
    if code == 3:
        assert out == ""
        assert err.startswith("internal inconsistency: exact check failed (sign_theorem) for ")
    else:
        assert json.loads(out)["certificate"]["regular"] is False


def test_check_report_skips_the_sign_theorem_on_an_inadmissible_spec():
    report = wronskian.compute_g(wronskian.ExtensionSpec(Fraction(1, 2), 1, (), (2,)))
    cert = regularity.certify(report)
    assert not report.spec.admissible and not cert.regular
    check = verify.check_report(report, cert)
    assert check.passed
    # k - q = 1: no origin recurrence either
    assert check.checks == {"divisible": True, "mu": True, "lead": True, "const": True, "wronskian_oracle": True}


def test_a_report_moved_onto_an_inadmissible_spec_takes_its_admissibility():
    # the flag lives on the spec alone, so the document's certificate and
    # check_report read the same one
    report = wronskian.compute_g(wronskian.ExtensionSpec(Fraction(5, 2), 1, (1,), (1,)))
    moved = replace(report, spec=wronskian.ExtensionSpec(Fraction(1, 2), 1, (), (2,)))
    cert = regularity.certify(moved)
    check = verify.check_report(moved, cert)
    assert build_document(moved, cert, check)["certificate"]["admissible"] is False
    assert "sign_theorem" not in check.checks and "regular" not in check.checks


# k = 6 > verify.ORACLE_MAX_K and no type-II pair: neither the Wronskian
# oracle nor the origin recurrence runs, so only the closed forms guard g
BARE_SPEC = wronskian.ExtensionSpec(Fraction(25, 2), 1, (1, 2, 3, 4, 5, 6), ())


@pytest.mark.parametrize(
    "fault, failures",
    [
        (lambda g: Poly(3 * c for c in g.coeffs), ["lead", "const"]),
        (lambda g: Poly(a + b for a, b in zip((*g.coeffs, 0, 0), (0, 0, *g.coeffs))), ["mu"]),  # (1 + z^2) g
        (lambda g: Poly((g.constant + 1, *g.coeffs[1:])), ["const"]),
    ],
    ids=["scaled", "raised_degree", "shifted_constant"],
)
def test_the_closed_form_checks_read_g_itself(fault, failures):
    report = wronskian.compute_g(BARE_SPEC)
    bad = replace(report, g=fault(report.g))
    check = verify.check_report(bad, regularity.certify(bad))
    assert "recurrence" not in check.checks and "wronskian_oracle" not in check.checks
    assert check.failures == failures
    assert verify.check_report(report, regularity.certify(report)).passed


def test_failed_origin_recurrence_exits_3(capsys, monkeypatch):
    def perturbed(spec):
        report = compute_g_real(spec)
        last, prev, both = report.sub_constants
        return replace(report, sub_constants=(last, prev, both * 2))

    compute_g_real = wronskian.compute_g
    monkeypatch.setattr(cli, "compute_g", perturbed)
    code, out, err = run_cli(["extend", "--alpha", "5/2", "--seeds", "II:1,II:2", "--skip-numeric"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("internal inconsistency: exact check failed (recurrence) for ")


def test_eop_on_a_perturbed_g_exits_3(capsys, monkeypatch):
    # g(0) off by one: the constant-term check and the direct-Wronskian
    # oracle catch it before the polynomial solve, which would find no
    # solution
    def perturbed(spec):
        report = compute_g_real(spec)
        return replace(report, g=Poly((report.g.constant + 1, *report.g.coeffs[1:])))

    compute_g_real = wronskian.compute_g
    monkeypatch.setattr(cli, "compute_g", perturbed)
    code, out, err = run_cli(["eop", "--alpha", "5/2", "--seeds", "I:1"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("internal inconsistency: exact check failed (const, wronskian_oracle) for ")


@pytest.mark.parametrize(
    "alpha, seeds, nu_max",
    [("3/2", "", 16), ("29/2", "I:2,I:4,I:6,II:3,II:5,II:7", 20)],
    ids=["classical", "mu30"],
)
def test_extend_passes_its_numeric_checks_at_a_high_nu_max(alpha, seeds, nu_max, capsys):
    # high levels: from nu = 17 on, float Horner loses the classical y_nu to
    # cancellation and the check exits 1
    code, out, err = run_cli(
        ["extend", "--alpha", alpha, "--seeds", seeds, "--nu-max", str(nu_max)], capsys
    )
    assert code == 0, err
    assert json.loads(out)["numeric"]["orthogonality_max_offdiag"] < 1e-10


@pytest.mark.xfail(strict=True, reason="float Horner loses y_nu to cancellation: ROADMAP item 4")
@pytest.mark.parametrize(
    "alpha, seeds, nu_max",
    [("3/2", "", 20), ("7/2", "I:1,II:1,II:2", 20), ("121/2", "I:1", 9), ("1001/2", "I:1", 6)],
    ids=["classical", "mu5", "large_alpha", "very_large_alpha"],
)
def test_a_correct_family_passes_its_orthogonality_check(alpha, seeds, nu_max, capsys):
    # each exits 1 with "numeric check failed" on an exact, orthogonal family
    code, out, err = run_cli(["extend", "--alpha", alpha, "--seeds", seeds, "--nu-max", str(nu_max)], capsys)
    assert code == 0, err
    assert json.loads(out)["numeric"]["orthogonality_max_offdiag"] < 1e-8


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_a_weight_past_the_float_range_gives_a_finite_off_diagonal(capsys):
    # unscaled, z^alpha e^-z overflowed at alpha = 341/2 and extend wrote
    # "orthogonality_max_offdiag": NaN with exit code 0
    code, out, err = run_cli(["extend", "--alpha", "341/2", "--seeds", "I:1", "--nu-max", "3"], capsys)
    assert code == 0, err
    assert _strict_json(out)["numeric"]["orthogonality_max_offdiag"] < 1e-8


@pytest.mark.parametrize(
    "alpha, seeds, nu_max", [("20001/2", "I:1", 2), ("5001/2", "", 4)], ids=["k1", "classical"]
)
def test_the_quadrature_resolves_a_weight_peaked_far_from_the_origin(alpha, seeds, nu_max, capsys):
    # z^alpha e^-z peaks at z ~ alpha with width ~ sqrt(alpha); on an interval
    # from u = 0 both rules straddled it with a few nodes and disagreed
    code, out, err = run_cli(["extend", "--alpha", alpha, "--seeds", seeds, "--nu-max", str(nu_max)], capsys)
    assert code == 0, err
    assert json.loads(out)["numeric"]["orthogonality_max_offdiag"] < 1e-8


def test_a_non_finite_gram_matrix_exits_1(capsys, monkeypatch):
    def poisoned(n):
        x, w = clenshaw_curtis(n)
        w[n // 2] = np.nan
        return x, w

    clenshaw_curtis = spectral._clenshaw_curtis
    monkeypatch.setattr(spectral, "_clenshaw_curtis", poisoned)
    code, out, err = run_cli(["extend", "--alpha", "5/2", "--seeds", "I:1"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("numeric check failed: the Gram matrix on ") and err.endswith("has a non-finite entry\n")


def test_extend_writes_the_family_of_a_regular_spec_with_negative_l(capsys):
    # l = -1/4: no potential and no numeric checks, but g is regular, so the
    # family exists, and it is the one eop returns
    args = ["--alpha", "1/4", "--seeds", "II:1", "--nu-max", "1"]
    code, out, err = run_cli(["extend"] + args, capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["certificate"]["regular"] is True
    assert "potential" not in doc and doc["numeric"] is None
    code, out, err = run_cli(["eop"] + args, capsys)
    assert code == 0, err
    assert doc["eop"] == json.loads(out)["eop"]
    assert doc["eop"]["levels"][1]["coefficients"] == ["-9/16", "0", "1"]


@pytest.mark.parametrize(
    "check, error",
    [("numeric_spectrum", QuadratureNonconvergence), ("orthogonality_check", QuadratureNonconvergence)],
)
def test_failed_numeric_check_exits_1(check, error, capsys, monkeypatch):
    def fail(*args):
        raise error("did not converge")

    monkeypatch.setattr(cli, check, fail)
    code, out, err = run_cli(["extend", "--alpha", "5/2", "--seeds", "I:1"], capsys)
    assert code == 1 and out == ""
    assert err == "numeric check failed: did not converge\n"


# the exit contract, written out: error type -> (exit status, stderr prefix)
EXIT_STATUS = {
    "XlagError": (2, "error"),
    "SpecInvalid": (2, "error"),
    "BoundaryRoot": (2, "error"),
    "InternalInconsistency": (3, "internal inconsistency"),
    "NotDivisible": (3, "internal inconsistency"),
    "OracleMismatch": (3, "internal inconsistency"),
    "ZeroPolynomial": (3, "internal inconsistency"),
    "NullSpaceDimension": (3, "internal inconsistency"),
    "NumericCheckFailed": (1, "numeric check failed"),
    "QuadratureNonconvergence": (1, "numeric check failed"),
}


@pytest.mark.parametrize(
    "error",
    [t for t in vars(errors).values() if isinstance(t, type) and issubclass(t, errors.XlagError)],
    ids=lambda t: t.__name__,
)
def test_every_error_type_exits_with_its_documented_status(error, capsys, monkeypatch):
    # a new error type must be added to EXIT_STATUS before it can pass
    assert error.__name__ in EXIT_STATUS
    code, prefix = EXIT_STATUS[error.__name__]

    def planted(spec):
        raise error("planted")

    monkeypatch.setattr(cli, "compute_g", planted)
    assert run_cli(["extend", "--alpha", "5/2", "--seeds", "I:1"], capsys) == (code, "", f"{prefix}: planted\n")


@pytest.mark.parametrize(
    "argv",
    [["extend", "--alpha", "5/2", "--seeds", "I:1", "--skip-numeric"], ["eop", "--alpha", "5/2", "--seeds", "I:1,II:1"]],
    ids=["extend", "eop"],
)
def test_a_vanishing_g_is_an_internal_inconsistency(argv, capsys, monkeypatch):
    # a zero g comes from the exact stage, never from the input: it exited 2
    # with "error: cannot certify the zero polynomial", as bad input
    def zero_det(cols, minors=False):
        return (exactmath.Poly(), None) if minors else exactmath.Poly()

    monkeypatch.setattr(wronskian, "poly_mat_det", zero_det)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (3, "", "internal inconsistency: cannot certify the zero polynomial\n")


@pytest.fixture
def compute_g_calls(monkeypatch):
    """Specs passed to compute_g, through every module that calls it."""
    calls = []
    original = wronskian.compute_g

    def counted(spec):
        calls.append(spec)
        return original(spec)

    for module in (wronskian, verify, cli):
        monkeypatch.setattr(module, "compute_g", counted)
    return calls


@pytest.mark.parametrize(
    "run",
    [
        lambda spec: verify.check_extension(spec),
        lambda spec: cli.main(["extend", "--alpha", "5/2", "--seeds", "I:1,II:1,II:2", "--skip-numeric"]),
    ],
    ids=["check_extension", "extend"],
)
def test_g_is_computed_once_per_spec(run, compute_g_calls, capsys):
    # k - q = 2 and k <= ORACLE_MAX_K: certificate, recurrence and oracle all
    # run, the recurrence on constants the one elimination already gave
    spec = wronskian.ExtensionSpec(Fraction(5, 2), 1, (1,), (1, 2))
    assert spec.k <= verify.ORACLE_MAX_K
    run(spec)
    assert compute_g_calls == [spec]


# every spec perfbench's `deep` workload can draw (k = 6-8): type-I and
# type-II indices and the alpha' half-steps above the largest type-II index
DEEP_POOL = [
    wronskian.ExtensionSpec(max(m_ii) + Fraction(step, 2) - len(m_i) - len(m_ii) + 2 * len(m_i), 1, m_i, m_ii)
    for m_i, m_ii, steps in (
        ((15,), (1, 3, 5, 6, 15), (1, 3, 5)),
        ((6, 8), (4, 5, 7, 12, 15), (2, 4, 6)),
        ((3, 10, 12, 15), (1, 2, 3, 18), (1, 3, 5)),
        ((7,), (4, 8, 9, 15, 16, 17, 18), (2, 4, 6)),
    )
    for step in steps
]


def test_check_report_runs_the_oracle_exactly_at_k_up_to_oracle_max_k(monkeypatch):
    # perfbench's `lattice` specs (k <= 4) and its `deep` pool (k = 6-8)
    oracle_specs = []
    original = verify.wronskian_direct

    def counted(report):
        oracle_specs.append(report.spec)
        return original(report)

    monkeypatch.setattr(verify, "wronskian_direct", counted)
    specs = list(verify.enumerate_lattice(max_k=4, max_m=4, alpha_steps=2)) + DEEP_POOL
    results = [verify.check_extension(spec) for spec in specs]
    assert all(r.passed for r in results)
    assert oracle_specs == [s for s in specs if s.k <= verify.ORACLE_MAX_K]
    assert (len(oracle_specs), len(specs)) == (324, 336)
    assert [("wronskian_oracle" in r.checks) for r in results] == [s.k <= verify.ORACLE_MAX_K for s in specs]


def test_the_verdict_table_holds_the_checks_that_ran_in_check_names_order():
    # k - q = 2, admissible and k <= ORACLE_MAX_K: every check applies
    check = verify.check_extension(wronskian.ExtensionSpec(Fraction(5, 2), 1, (1,), (1, 2)))
    assert list(check.checks) == list(verify.CHECK_NAMES)
    assert all(check.checks.values()) and check.failures == []
    # the table is the one place a check's name is kept
    assert not set(verify.CHECK_NAMES) & {f.name for f in fields(verify.SpecCheck)}


@pytest.mark.parametrize(
    "args, calls",
    [
        (["eop", "--alpha", "5/2", "--seeds", "I:1"], 0),
        (["extend", "--alpha", "5/2", "--seeds", "I:1", "--skip-numeric"], 1),
        (["extend", "--alpha", "1/4", "--seeds", "II:1", "--skip-numeric"], 0),
    ],
    ids=["eop", "extend", "extend_negative_l"],
)
def test_the_potential_is_built_only_where_it_is_rendered(args, calls, monkeypatch, capsys):
    built = []
    original = spectral.build_potential

    def counted(report):
        built.append(report.spec)
        return original(report)

    monkeypatch.setattr(cli, "build_potential", counted)
    assert cli.main(args) == 0
    assert len(built) == calls


def test_extend_makes_no_nullspace_call(monkeypatch, capsys):
    from test_spectral import eop_nullspace

    calls = []
    original = exactmath.rational_nullspace

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    # every xlag module that holds the function, under whatever name it imported it
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "xlag"]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    assert cli.main(["extend", "--alpha", "5/2", "--seeds", "I:1,II:1,II:2", "--skip-numeric"]) == 0
    assert calls == []
    # the counter does see the oracle route
    report = wronskian.compute_g(wronskian.ExtensionSpec(Fraction(5, 2), 1, (1,), ()))
    eop_nullspace(report.g, report.spec.alpha, 0, 1)
    assert len(calls) == 1


def test_one_bad_spec_does_not_abort_the_lattice(monkeypatch, capsys):
    lattice = {"max_k": 1, "max_m": 2, "alpha_steps": 1}
    specs = list(verify.enumerate_lattice(**lattice))
    bad = specs[1]
    certify_real = verify.certify

    def certify(report):
        if report.spec == bad:
            raise ZeroPolynomial("planted")
        return certify_real(report)

    monkeypatch.setattr(verify, "certify", certify)
    results = verify.run_lattice(workers=1, **lattice)
    assert [r.spec for r in results] == specs
    assert all(r.passed for r in results if r.spec != bad)
    summary = verify.summarize(results)
    failures = summary["failures"]
    assert [r.spec for r in failures] == [bad]
    assert failures[0].failures == ["ZeroPolynomial: planted"]
    # the checks the exception cut short did not run, so they are not counted
    # certify runs before every comparison, so none of them ran on bad
    for name in ("const", "sign_theorem", "regular"):
        assert summary["counts"][name] == {"checked": 3, "passed": 3}
    assert summary["counts"]["divisible"] == {"checked": 4, "passed": 4}
    code, out, err = run_cli(["verify", "--max-k", "1", "--max-m", "2", "--alpha-grid", "1"], capsys)
    assert code == 1
    assert "all invariants hold" not in out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()[2:]}
    assert rows["sign_theorem"] == rows["regular"] == ["3", "3", "0"]
    assert "ZeroPolynomial: planted" in err


def _cycled_rows(bad):
    """build_gamma_matrix with rows 0, 1, 2 of bad's matrix reordered as 2, 0, 1."""
    build_real = wronskian.build_gamma_matrix

    def build(spec):
        return cycle_rows(build_real(spec)) if spec == bad else build_real(spec)

    return build


def _not_divisible(bad):
    compute_g_real = wronskian.compute_g

    def compute_g(spec):
        if spec == bad:
            raise NotDivisible("planted")
        return compute_g_real(spec)

    return compute_g


@pytest.mark.parametrize(
    "module, name, fault, failure, divisible",
    [
        # the elimination swaps rows, so compute_g raises OracleMismatch
        (
            wronskian, "build_gamma_matrix", _cycled_rows,
            "OracleMismatch: elimination of the gamma matrix of {bad} swapped rows",
            {"checked": 14, "passed": 14},
        ),
        (verify, "compute_g", _not_divisible, "divisible", {"checked": 15, "passed": 14}),
    ],
    ids=["row-swap", "not-divisible"],
)
def test_a_compute_g_error_is_the_specs_failure(module, name, fault, failure, divisible, monkeypatch, capsys):
    lattice = {"max_k": 4, "max_m": 2, "alpha_steps": 1}
    bad = wronskian.ExtensionSpec(Fraction(5, 2), 1, (1, 2), (1, 2))
    monkeypatch.setattr(module, name, fault(bad))
    results = verify.run_lattice(workers=1, **lattice)
    assert len(results) == 15
    assert all(r.passed for r in results if r.spec != bad)
    summary = verify.summarize(results)
    assert [r.spec for r in summary["failures"]] == [bad]
    assert summary["failures"][0].failures == [failure.format(bad=bad)]
    # divisibility is counted only where compute_g returned or raised
    # NotDivisible; no other check ran on bad
    assert summary["counts"]["divisible"] == divisible
    for check in verify.CHECK_NAMES[1:]:
        assert summary["counts"][check]["checked"] == summary["counts"][check]["passed"] <= 14
    code, out, err = run_cli(["verify", "--max-k", "4", "--max-m", "2", "--alpha-grid", "1"], capsys)
    assert code == 1
    assert "all invariants hold" not in out
    assert f"first failing spec: {bad}" in err


def test_a_spec_check_carries_no_report_or_certificate():
    # run_lattice's workers pickle one SpecCheck per spec back to the parent;
    # g and its Sturm chain riding along would nearly treble that payload
    check = verify.check_extension(wronskian.ExtensionSpec(Fraction(5, 2), 1, (1,), (1, 2)))
    assert check.passed
    payload = pickle.dumps(check)
    for cls in (wronskian.GReport, regularity.RegularityCertificate):
        assert cls.__name__.encode() not in payload
    assert pickle.loads(payload) == check


def test_a_spec_check_carries_the_certificate_method():
    specs = [
        wronskian.ExtensionSpec(Fraction(5, 2), 1, (1,), (1, 2)),  # admissible: one sign
        wronskian.ExtensionSpec(Fraction(1, 2), 1, (), (2,)),  # one sign change
        wronskian.ExtensionSpec(Fraction(-3, 2), 1, (), (1, 3)),  # two
    ]
    results = [verify.check_extension(spec) for spec in specs]
    assert [r.method for r in results] == ["sturm", "descartes", "vca"]
    assert tuple(r.method for r in results) == regularity.CERTIFY_METHODS
    assert verify.summarize(results)["methods"] == {"sturm": 1, "descartes": 1, "vca": 1}


def test_verify_prints_how_many_specs_each_method_decided(capsys):
    code, out, _ = run_cli(["verify", "--max-k", "1", "--max-m", "2", "--alpha-grid", "1"], capsys)
    assert code == 0
    # every admissible g seen has coefficients of one sign
    assert "certified by: sturm 4, descartes 0, vca 0" in out.splitlines()


def test_extend_records_the_certificate_method(capsys):
    code, out, err = run_cli(["extend", "--alpha", "5/2", "--seeds", "I:6,I:8,I:10,I:12,II:7,II:9,II:11,II:13"], capsys)
    assert code == 0, err
    cert = json.loads(out)["certificate"]
    assert (cert["method"], cert["sign_variations"], cert["sturm_sequence_length"]) == ("vca", 32, None)
    assert (cert["root_count_positive_axis"], cert["regular"]) == (4, False)
    code, out, err = run_cli(["extend", "--alpha", "5/2", "--seeds", "I:1,II:1", "--skip-numeric"], capsys)
    cert = json.loads(out)["certificate"]
    assert (cert["method"], cert["sign_variations"], cert["sturm_sequence_length"]) == ("sturm", 0, 4)


def test_verify_does_not_import_scipy():
    # numpy serves only the numeric layer and scipy only the tests' oracles:
    # import xlag, verify and eop load neither, and extend loads numpy alone
    script = (
        "import contextlib, io, sys\n"
        "import xlag\n"
        "from xlag import cli, verify\n"
        "loaded = lambda: print('numpy' in sys.modules, 'scipy' in sys.modules)\n"
        "loaded()\n"
        "assert verify.check_extension(next(verify.enumerate_lattice())).passed\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--max-k', '2', '--max-m', '2', '--alpha-grid', '1']) == 0\n"
        "assert cli.main(['eop', '--alpha', '5/2', '--seeds', 'I:1', '--nu-max', '1', '--out', sys.argv[1]]) == 0\n"
        "loaded()\n"
        "cli.main(['extend', '--alpha', '5/2', '--seeds', 'I:1', '--nu-max', '1', '--out', sys.argv[1]])\n"
        "loaded()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, os.devnull], capture_output=True, text=True, timeout=120, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 6 + ["True", "False"]


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    # with scipy blocked, importing it raises ImportError
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from xlag import cli\n"
        "out = sys.argv[1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    print(cli.main(['extend', '--alpha', '7/2', '--seeds', 'I:1,II:1,II:2', '--out', out]),\n"
        "          cli.main(['sample', '--alpha', '5/2', '--seeds', 'I:1', '--points', '3', '--wavefunctions', '0,1', '--out', out]),\n"
        "          cli.main(['eop', '--alpha', '5/2', '--seeds', 'I:1', '--nu-max', '2', '--out', out]),\n"
        "          cli.main(['verify', '--max-k', '2', '--max-m', '2', '--alpha-grid', '1']), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")], capture_output=True, text=True, timeout=120, env=CHILD_ENV
    )
    assert (proc.returncode, proc.stderr) == (0, "0 0 0 0\n")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--skip-numeric", "--out", str(path)],
        capsys,
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["spec"]["alpha"] == "5/2"


@pytest.mark.parametrize(
    "args",
    [
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "1"],
        ["eop", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "1"],
        ["sample", "--alpha", "5/2", "--seeds", "I:1", "--points", "16"],
    ],
    ids=["extend", "eop", "sample"],
)
@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
def test_an_unwritable_out_path_exits_2(args, where, tmp_path, capsys):
    # an OSError from --out is bad input, not a verification failure (exit 1)
    path = tmp_path / "missing" / "x.out" if where == "missing_dir" else tmp_path
    code, out, err = run_cli(args + ["--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_eop_subcommand(capsys):
    code, out, _ = run_cli(["eop", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["eop"]["mu"] == 1
    assert doc["eop"]["levels"][0]["coefficients"] == ["7/2", "1"]


def test_eop_rejects_irregular(capsys):
    code, out, err = run_cli(["eop", "--alpha", "1/2", "--seeds", "II:2"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: spec is not regular; no orthogonal polynomial family exists\n"


class TestSample:
    def test_csv_shape_and_monotonicity(self, capsys):
        code, out, _ = run_cli(
            [
                "sample", "--alpha", "3/2", "--seeds", "I:1",
                "--x-min", "0.05", "--x-max", "8", "--points", "1000",
                "--wavefunctions", "0,1",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,V2,psi_0,psi_1"
        assert len(lines) == 1001
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        xs = [r[0] for r in rows]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        flat = [v for r in rows for v in r]
        assert all(v == v and abs(v) != float("inf") for v in flat)  # no NaN/Inf
        # rational part decays: V2 approaches the pure oscillator + shift
        last = rows[-1]
        base = 0.25 * 64 + 2.0 / 64 - 1.0  # omega^2 x^2/4 + l(l+1)/x^2 + C at x=8
        assert abs(last[1] - base) / abs(base) < 0.01
        # ground state has no sign change
        psi0 = [r[2] for r in rows]
        tail = max(abs(v) for v in psi0) * 1e-12
        signs = [v > 0 for v in psi0 if abs(v) > tail]
        assert all(s == signs[0] for s in signs)

    @pytest.mark.parametrize(
        "args, column, x",
        [
            (["--x-max", "1e308", "--points", "3"], "V2", "5.0000000000000001e+307"),
            (["--x-min", "1e-200", "--x-max", "1e-199", "--wavefunctions", "0"], "V2", "9.9999999999999998e-201"),
        ],
        ids=["overflow", "pole"],
    )
    @pytest.mark.parametrize("to_file", [False, True])
    def test_a_non_finite_value_exits_2_and_writes_nothing(self, args, column, x, to_file, tmp_path, capsys):
        # both once wrote nan or inf rows with exit 0 and only a RuntimeWarning
        path = tmp_path / "out.csv"
        argv = ["sample", "--alpha", "3/2", "--seeds", "I:1"] + args + (["--out", str(path)] if to_file else [])
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {column} is not finite at x = {x}; narrow --x-min/--x-max\n"
        assert not path.exists()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_a_negative_final_l_exits_2_and_writes_nothing(self, to_file, tmp_path, capsys):
        path = tmp_path / "out.csv"
        argv = ["sample", "--alpha", "-1/4", "--seeds", "II:1"] + (["--out", str(path)] if to_file else [])
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: final angular momentum l = -3/4 is negative\n"
        assert not path.exists()

    def test_irregular_requires_force(self, capsys):
        args = ["sample", "--alpha", "1/2", "--seeds", "II:2", "--points", "50"]
        assert run_cli(args, capsys) == (2, "", "error: spec is not regular; pass --force to sample anyway\n")
        code, out, _ = run_cli(args + ["--force"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "x,V2"
        # the family is solved for the uncertified g too, with nothing on stderr
        code, out, err = run_cli(args + ["--force", "--wavefunctions", "0"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "x,V2,psi_0"
        assert err == ""


class TestVerify:
    def test_small_lattice_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--max-k", "2", "--max-m", "3", "--alpha-grid", "2"], capsys
        )
        assert code == 0
        assert "all invariants hold" in out

    def test_lattice_size_counts_the_enumeration(self):
        # C(2 max_m, k) index lists per k over both types (Vandermonde's
        # identity), alpha_steps each, and none on a non-positive input
        for max_k, max_m, steps in itertools.product(range(-1, 7), range(-1, 5), range(-1, 4)):
            specs = verify.enumerate_lattice(max_k, max_m, steps)
            assert verify.lattice_size(max_k, max_m, steps) == sum(1 for _ in specs), (max_k, max_m, steps)
        assert verify.lattice_size() == 5551 and verify.lattice_size(4, 4, 2) == 324

    @pytest.mark.parametrize("argv", [["--max-m", "1000"], ["--max-k", "2", "--max-m", "2", "--alpha-grid", "1000000000"], ["--max-k", "0"]])
    def test_a_lattice_out_of_range_is_refused_before_it_runs(self, argv, capsys, monkeypatch):
        # counted, not built: a build past LATTICE_MAX would run for hours
        monkeypatch.setattr(cli, "run_lattice", lambda **lattice: pytest.fail(f"ran {lattice}"))
        code, out, err = run_cli(["verify", *argv], capsys)
        assert (code, out) == (2, "") and err.startswith("error: the lattice of --max-k") and err.count("\n") == 1

    def test_a_huge_max_k_on_a_small_lattice_runs(self, capsys):
        # k stops at 2 max_m, past which no spec exists: the enumeration once
        # ran on through every k up to max_k
        code, out, _ = run_cli(["verify", "--max-k", "100000000", "--max-m", "1", "--alpha-grid", "1"], capsys)
        assert code == 0
        assert out.startswith("lattice: 3 admissible specs") and "all invariants hold" in out

    @pytest.fixture
    def pools_started(self, monkeypatch):
        """pools_started(mask, workers=None): the pools run_lattice starts on
        a 3-spec lattice under a stubbed multiprocessing.Pool, with `mask` the
        CPUs in the affinity mask, as under taskset, or None for a platform
        with no mask (os.cpu_count() is 8 unless a test patches it)."""
        import multiprocessing

        pools = []

        class Pool:
            def __init__(self, n):
                pools.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, specs, chunksize):
                return [fn(s) for s in specs]

        def started(mask, workers=None):
            if mask is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
            pools.clear()
            assert verify.run_lattice(max_k=2, max_m=1, alpha_steps=1, workers=workers) == serial
            return list(pools)

        monkeypatch.setattr(multiprocessing, "Pool", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        serial = [verify.check_extension(s) for s in verify.enumerate_lattice(2, 1, 1)]
        assert len(serial) == 3
        return started

    def test_parallel_path(self, capsys, monkeypatch):
        # the default verify on a real pool, with the threshold patched down
        # and two CPUs in the mask, prints what one process prints
        import multiprocessing

        pools, real_pool = [], multiprocessing.Pool

        def spy_pool(n):
            pools.append(n)
            return real_pool(n)

        argv = ["verify", "--max-k", "2", "--max-m", "2", "--alpha-grid", "2"]
        serial = run_cli(argv, capsys)
        assert serial[0] == 0 and "all invariants hold" in serial[1]
        monkeypatch.setattr(multiprocessing, "Pool", spy_pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(verify, "POOL_MIN_SPECS", 1)
        assert run_cli(argv, capsys) == serial
        assert pools == [2]

    def test_thread_cap_env(self, pools_started, monkeypatch):
        # the affinity mask taskset sets caps the default pool; an explicit
        # count stands against the mask and the threshold alike
        monkeypatch.setattr(verify, "POOL_MIN_SPECS", 3)
        assert pools_started(range(2)) == [2]
        assert pools_started({0}) == []  # as under taskset -c 0
        monkeypatch.setattr(verify, "POOL_MIN_SPECS", 4)
        assert pools_started({0}, workers=2) == pools_started(range(4), workers=2) == [2]

    def test_worker_cap_counts_the_cpus_the_process_may_run_on(self, pools_started, monkeypatch):
        monkeypatch.setattr(verify, "POOL_MIN_SPECS", 3)
        assert pools_started({3}) == []  # as under taskset -c 3 on 8 CPUs
        assert pools_started(None) == [8]  # no affinity mask on the platform
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # the CPU count is unknown
        assert pools_started(None) == []

    def test_the_pool_starts_on_every_cpu_from_pool_min_specs(self, pools_started, monkeypatch):
        # below POOL_MIN_SPECS one process; from it on, every CPU in the mask
        monkeypatch.setattr(verify, "POOL_MIN_SPECS", 4)
        assert pools_started(range(4)) == []
        monkeypatch.setattr(verify, "POOL_MIN_SPECS", 3)
        assert pools_started(range(4)) == [4]

    def test_the_pool_returns_the_serial_verdicts(self):
        # the pool first, while this process's memos are cold, so each
        # worker fills its own; then the serial loop
        lattice = {"max_k": 3, "max_m": 3, "alpha_steps": 2}
        pooled = verify.run_lattice(workers=2, **lattice)
        serial = verify.run_lattice(workers=1, **lattice)
        assert len(serial) == 82 and all(r.passed for r in serial)
        assert pooled == serial

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_refused(self, workers):
        # 0 is no count of workers; it must not mean every CPU
        with pytest.raises(ValueError, match="workers must be at least 1"):
            verify.run_lattice(max_k=1, max_m=1, alpha_steps=1, workers=workers)

    def test_fault_injection_detected(self, capsys, monkeypatch):
        predict_const = wronskian.predict_const
        monkeypatch.setattr(wronskian, "predict_const", lambda spec, **kw: -predict_const(spec, **kw))
        code, _, err = run_cli(["verify", "--max-k", "1", "--max-m", "2", "--alpha-grid", "1"], capsys)
        assert code == 1
        assert "first failing spec" in err


def test_readme_library_sketch_runs_on_the_package_exports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sketch,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(sketch, {})
    (names,) = re.findall(r"^from xlag import (.*)$", sketch, re.M)
    assert sorted(names.split(", ")) == sorted(xlag.__all__)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "xlag.cli", "extend", "--alpha", "5/2",
         "--seeds", "I:1", "--skip-numeric"],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certificate"]["regular"] is True
