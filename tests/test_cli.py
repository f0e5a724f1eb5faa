import contextlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlag
from xlag import cli, exactmath, regularity, spectral, verify, wronskian
from xlag.errors import GridTooCoarse, NotDivisible, QuadratureNonconvergence, ZeroPolynomial


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


def test_extend_inadmissible_reports_irregular(capsys):
    code, out, _ = run_cli(["extend", "--alpha", "1/2", "--seeds", "II:2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["regular"] is False
    assert doc["certificate"]["root_count_positive_axis"] == 1
    assert doc["spec"]["admissible"] is False
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
        ["XLAG_THREADS=abc", "verify", "--max-k", "1", "--parallel"],
        ["verify", "--max-k", "0"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--x-min", "0"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--points", "-1"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--wavefunctions", "0,x"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--wavefunctions", "-1"],
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "abc"],
        [],
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--bogus"],
        ["sample", "--alpha", "1e999", "--seeds", "I:1", "--points", "16"],
        ["eop", "--alpha", "1e300", "--seeds", "I:1,II:1", "--nu-max", "14"],
        ["sample", "--alpha", "3/2", "--seeds", "I:1", "--x-max", "inf"],
    ],
)
def test_bad_input_exits_2(args, capsys, monkeypatch):
    # a leading NAME=value sets that environment variable, as in a shell
    if args and "=" in args[0]:
        name, value = args[0].split("=", 1)
        monkeypatch.setenv(name, value)
        args = args[1:]
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


# argv for the fuzz below: each flag draws from its own values, well-formed
# or not, and stray tokens break the flag/value pairing; every bound keeps
# a call cheap (k <= 3, indices <= 4, nu <= 5, at most 50 points)
FUZZ_VALUES = {
    "--alpha": ["5/2", "3/2", "1/2", "7/2", "-1/2", "0", "1/0", "abc", "", "2.5", "1e999"],
    "--l": ["2", "1", "-1", "1/2", "x"],
    "--omega": ["1", "2", "1/3", "0", "-1", "nan"],
    "--seeds": ["", "I:1", "II:2", "I:1,II:1", "I:2,II:1,II:3", "I:4,II:4", "I:0", "X:1",
                "I:1,I:1", "I:x", "II:", ",", "I:1:2"],
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
    assert (check.sign_theorem, check.regular) == (None, None)
    assert (check.mu, check.lead, check.const, check.wronskian_oracle) == (True, True, True, True)


def test_a_report_moved_onto_an_inadmissible_spec_takes_its_admissibility():
    # the flag lives on the spec alone, so the certificate and check_report
    # read the same one
    report = wronskian.compute_g(wronskian.ExtensionSpec(Fraction(5, 2), 1, (1,), (1,)))
    moved = replace(report, spec=wronskian.ExtensionSpec(Fraction(1, 2), 1, (), (2,)))
    cert = regularity.certify(moved)
    check = verify.check_report(moved, cert)
    assert cert.admissible is False
    assert (check.sign_theorem, check.regular) == (None, None)


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
    # one coefficient of g off: the direct-Wronskian oracle catches it
    # before the polynomial solve, which would find no solution
    def perturbed(spec):
        report = compute_g_real(spec)
        return replace(report, g=report.g + 1)

    compute_g_real = wronskian.compute_g
    monkeypatch.setattr(cli, "compute_g", perturbed)
    code, out, err = run_cli(["eop", "--alpha", "5/2", "--seeds", "I:1"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("internal inconsistency: exact check failed (wronskian_oracle) for ")


@pytest.mark.parametrize(
    "check, error",
    [("numeric_spectrum", GridTooCoarse), ("orthogonality_check", QuadratureNonconvergence)],
)
def test_failed_numeric_check_exits_1(check, error, capsys, monkeypatch):
    def fail(*args):
        raise error("did not converge")

    monkeypatch.setattr(cli, check, fail)
    code, out, err = run_cli(["extend", "--alpha", "5/2", "--seeds", "I:1"], capsys)
    assert code == 1 and out == ""
    assert err == "numeric check failed: did not converge\n"


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
    assert spec.k <= wronskian.ORACLE_MAX_K
    run(spec)
    assert compute_g_calls == [spec]


def test_extend_makes_no_nullspace_call(monkeypatch, capsys):
    calls = []
    original = exactmath.rational_nullspace

    def counted(rows):
        calls.append(len(rows))
        return original(rows)

    for module in (exactmath, spectral):
        monkeypatch.setattr(module, "rational_nullspace", counted)
    assert cli.main(["extend", "--alpha", "5/2", "--seeds", "I:1,II:1,II:2", "--skip-numeric"]) == 0
    assert calls == []
    # the counter does see the oracle route
    report = wronskian.compute_g(wronskian.ExtensionSpec(Fraction(5, 2), 1, (1,), ()))
    spectral.eop_nullspace(report.g, report.spec.alpha, 0, 1)
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
        m = build_real(spec)
        return [m[2], m[0], m[1]] + m[3:] if spec == bad else m

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


def test_verify_does_not_import_scipy():
    # numpy and scipy serve only the numeric layer: import xlag, verify and
    # eop load neither, and extend imports both on first use
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
        [sys.executable, "-c", script, os.devnull], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 6 + ["True"] * 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["extend", "--alpha", "5/2", "--seeds", "I:1", "--skip-numeric", "--out", str(path)],
        capsys,
    )
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["spec"]["alpha"] == "5/2"


def test_eop_subcommand(capsys):
    code, out, _ = run_cli(["eop", "--alpha", "5/2", "--seeds", "I:1", "--nu-max", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["eop"]["mu"] == 1
    assert doc["eop"]["levels"][0]["coefficients"] == ["7/2", "1"]


def test_eop_rejects_irregular(capsys):
    code, _, err = run_cli(["eop", "--alpha", "1/2", "--seeds", "II:2"], capsys)
    assert code == 2
    assert "not regular" in err


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

    def test_irregular_requires_force(self, capsys):
        args = ["sample", "--alpha", "1/2", "--seeds", "II:2", "--points", "50"]
        assert cli.main(args) == 2
        capsys.readouterr()
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

    def test_parallel_path(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--max-k", "2", "--max-m", "2", "--alpha-grid", "2", "--parallel"],
            capsys,
        )
        assert code == 0
        assert "all invariants hold" in out

    def test_thread_cap_env(self, monkeypatch):
        from xlag.verify import worker_cap

        monkeypatch.setenv("XLAG_THREADS", "1")
        assert worker_cap(8) == 1
        monkeypatch.delenv("XLAG_THREADS")
        assert worker_cap(3) == 3

    def test_fault_injection_detected(self, capsys, monkeypatch):
        predict_const = wronskian.predict_const
        monkeypatch.setattr(wronskian, "predict_const", lambda spec: -predict_const(spec))
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
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["certificate"]["regular"] is True
