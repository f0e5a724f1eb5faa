import math
import pickle
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_exactmath import columns, compose_neg, pochhammer, ref_pochhammer
from test_regularity import _inadmissible_probes
from xlag import wronskian
from xlag.errors import OracleMismatch, SpecInvalid
from xlag.exactmath import _PACK_BITS, Poly, _bareiss, _poly, poly_mat_det
from xlag.seeds import laguerre
from xlag.verify import enumerate_lattice
from xlag.wronskian import (
    ExtensionSpec,
    build_gamma_matrix,
    check_origin_recurrence,
    compute_g,
    predict_const,
    predict_mu_sigma_lead,
    wronskian_direct,
)


def spec(alpha, m_i=(), m_ii=(), omega=1):
    return ExtensionSpec(F(alpha), omega, tuple(m_i), tuple(m_ii))


def polys(form):
    """The Poly matrix of poly_mat_det's int form (rows, dens)."""
    rows, dens = form
    return [[_poly(list(a), d) for a, d in zip(row, dens)] for row in rows]


def predictions_hold(rep):
    """Degree, leading coefficient and g(0) all equal their closed forms."""
    return (rep.mu_predicted, rep.lead_predicted, rep.const_predicted) == (
        rep.g.degree, rep.g.leading, rep.g.constant
    )


class TestSpecValidation:
    def test_duplicates_within_type_rejected(self):
        with pytest.raises(SpecInvalid):
            spec("5/2", m_i=(1, 1))
        with pytest.raises(SpecInvalid):
            spec("5/2", m_ii=(2, 2))

    def test_unsorted_rejected(self):
        with pytest.raises(SpecInvalid):
            spec("5/2", m_i=(3, 1))

    def test_nonpositive_index_rejected(self):
        with pytest.raises(SpecInvalid):
            spec("5/2", m_i=(0, 1))

    def test_alpha_prime_floor(self):
        # q=2, k=2 shifts alpha' down by 2: here alpha' = -1/2
        with pytest.raises(SpecInvalid):
            spec("3/2", m_i=(1, 2))
        with pytest.raises(SpecInvalid):
            spec("-5/2", m_ii=(1, 2))

    @pytest.mark.parametrize(
        "alpha, omega",
        [(2.1, 1), (float("inf"), 1), (float("nan"), 1), (F(5, 2), 1.5), (True, 1), (F(5, 2), True)],
        ids=["float", "inf", "nan", "float_omega", "bool", "bool_omega"],
    )
    def test_alpha_and_omega_must_be_exact(self, alpha, omega):
        # Fraction(2.1) is 4728779608739021/2251799813685248, not 21/10
        with pytest.raises(SpecInvalid, match="must be an int or a Fraction"):
            ExtensionSpec(alpha, omega, (1,), ())

    @pytest.mark.parametrize("m_i, m_ii", [((True,), ()), ((), (True,)), ((1.0,), ())])
    def test_an_index_must_be_an_int(self, m_i, m_ii):
        with pytest.raises(SpecInvalid, match="indices must be positive integers"):
            ExtensionSpec(F(5, 2), 1, m_i, m_ii)

    def test_duplicates_across_types_allowed(self):
        s = spec("5/2", m_i=(1,), m_ii=(1,))
        assert s.k == 2 and s.q == 1

    def test_derived_quantities(self):
        s = spec("5/2", m_i=(1,), m_ii=(1, 2))
        assert (s.k, s.q) == (3, 1)
        assert s.alpha_prime == F(5, 2) + 3 - 2
        assert s.l == 2
        assert s.l_prime == s.alpha_prime - F(1, 2)

    def test_admissibility(self):
        assert spec("5/2", m_i=(1,), m_ii=(1,)).admissible  # alpha' = 5/2 > 1
        assert not spec("1/2", m_ii=(2,)).admissible  # alpha' = 3/2 < 2
        assert spec("5/2", m_i=(1, 3)).admissible  # no type-II constraint
        assert spec("5/2").admissible  # identity extension


class TestGammaMatrix:
    def test_k1_type_i(self):
        s = spec("7/2", m_i=(1,))
        m = polys(build_gamma_matrix(s))
        assert m == [[compose_neg(laguerre(1, s.alpha_prime))]]
        assert m[0][0] == Poly((s.alpha_prime + 1, 1))

    def test_k1_type_ii(self):
        s = spec("3/2", m_ii=(1,))
        m = polys(build_gamma_matrix(s))
        assert m == [[laguerre(1, -s.alpha_prime)]]

    def test_k2_mixed_explicit(self):
        # alpha' = alpha for k=2, q=1
        a = F(5, 2)
        s = spec(a, m_i=(1,), m_ii=(1,))
        m = polys(build_gamma_matrix(s))
        assert m[0][0] == Poly((a + 1, 1))  # L_1^{(a)}(-z)
        assert m[0][1] == Poly((0, 1)) * laguerre(1, -a)  # z L_1^{(-a)}(z)
        assert m[1][0] == Poly((1,))  # L_0^{(a+1)}(-z)
        assert m[1][1] == laguerre(2, -a - 1) * 2  # (m+1)_1 L_2^{(-a-1)}(z)

    def test_negative_degree_entries_are_zero(self):
        # q=2 pure type I with m=(1,2): row 2, column 1 hits degree -1
        s = spec("9/2", m_i=(1, 2))
        m = polys(build_gamma_matrix(s))
        assert m[1][0] == compose_neg(laguerre(0, s.alpha_prime + 1))
        # row index 2 (i=2), m_1 - i + 1 = 0 -> L_0; no zero here, use k=3
        s3 = spec("13/2", m_i=(1, 2, 3))
        rows, _ = build_gamma_matrix(s3)
        assert rows[2][0] == []  # L_{-1} convention


class TestComputeG:
    def test_k1_type_i(self):
        rep = compute_g(spec("5/2", m_i=(1,)))
        assert rep.g == Poly((F(5, 2), 1))
        assert (rep.g.degree, rep.g.leading, rep.g.constant) == (1, 1, F(5, 2))
        assert predictions_hold(rep)

    def test_k1_type_ii(self):
        a = F(5, 2)
        rep = compute_g(spec(a, m_ii=(1,)))
        assert rep.g == Poly((-a, -1))
        assert (rep.g.degree, rep.sigma) == (1, 1)
        assert rep.g.leading == -1
        assert rep.g.constant == -a
        assert predictions_hold(rep)

    def test_k2_mixed_frozen(self):
        # hand-expanded 2x2 determinant at alpha = 5/2:
        # g = z^3 + 3 a z^2 + 3(a^2-1) z + a(a^2-1)
        a = F(5, 2)
        rep = compute_g(spec(a, m_i=(1,), m_ii=(1,)))
        assert rep.g == Poly((a * (a * a - 1), 3 * (a * a - 1), 3 * a, 1))
        assert rep.g == Poly((F(105, 8), F(63, 4), F(15, 2), 1))
        assert (rep.g.degree, rep.sigma, rep.g.leading) == (3, 2, 1)
        assert rep.g.constant == F(105, 8)
        assert predictions_hold(rep)

    def test_counterexample_polynomial(self):
        rep = compute_g(spec("1/2", m_ii=(2,)))
        assert rep.g == Poly((F(-1, 8), F(-1, 2), F(1, 2)))
        assert not rep.spec.admissible
        assert predictions_hold(rep)  # closed forms hold regardless of admissibility

    def test_identity_extension(self):
        rep = compute_g(spec("3/2"))
        assert rep.g == Poly((1,))
        assert (rep.g.degree, rep.sigma, rep.g.leading, rep.g.constant) == (0, 0, 1, 1)


class TestPredictions:
    def test_mu_sigma_lead_examples(self):
        assert predict_mu_sigma_lead(spec("5/2", m_i=(1,))) == (1, 0, 1)
        assert predict_mu_sigma_lead(spec("5/2", m_ii=(1,))) == (1, 1, -1)
        assert predict_mu_sigma_lead(spec("5/2", m_ii=(1, 2))) == (2, 3, F(-1, 2))

    def test_const_examples(self):
        a = F(7, 2)
        assert predict_const(spec(a, m_i=(1,))) == a
        assert predict_const(spec(a, m_ii=(1,))) == -a
        # pure type-I pair m=(1,2): (a-1) a / 2
        assert predict_const(spec(a, m_i=(1, 2))) == (a - 1) * a / 2

    def test_compute_g_takes_the_closed_forms_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(wronskian, "predict_mu_sigma_lead", lambda s: calls.append(s) or predict_mu_sigma_lead(s))
        s = spec("15/2", m_i=(1, 3), m_ii=(2, 4, 5))
        report = compute_g(s)
        assert calls == [s]
        assert report.const_predicted == predict_const(s) == report.g.constant
        assert predict_const(s, lead=report.lead_predicted) == report.const_predicted

    def test_pure_type_i_paper_form(self):
        # (alpha-k+1)_{m_1} ... (alpha)_{m_k-k+1} / (m_1! ... m_k!) * Delta
        from math import factorial

        from xlag.exactmath import vandermonde

        a = F(9, 2)
        ms = (1, 3, 4)
        s = spec(a, m_i=ms)
        k = len(ms)
        expect = F(vandermonde(ms))
        for i, m in enumerate(ms, start=1):
            expect *= pochhammer(a - k + i, m - i + 1) / factorial(m)
        assert predict_const(s) == expect
        assert compute_g(s).g.constant == expect


class TestWronskianOracle:
    def test_k1_wronskian_is_seed_polynomial(self):
        report = compute_g(spec("5/2", m_i=(1,)))
        assert wronskian_direct(report) == report.g

    def test_k2_match(self):
        # k(k-1)/2 - q(k-q) = 0: the Wronskian polynomial is g itself
        report = compute_g(spec("5/2", m_i=(1,), m_ii=(1,)))
        assert wronskian_direct(report) == report.g

    def test_k3_match(self):
        report = compute_g(spec("5/2", m_i=(1,), m_ii=(1, 2)))
        assert wronskian_direct(report) == report.g.shift_up(1)

    def test_k4_inadmissible_still_matches(self):
        # the oracle identity is algebraic; admissibility is irrelevant
        # (alpha' = 3/2 is far below max(m_ii) = 4)
        wronskian_direct(compute_g(spec("-5/2", m_ii=(1, 2, 3, 4))))

    def test_detects_a_wrong_g(self):
        # the oracle rebuilds the Wronskian from the seeds, so a g that does
        # not come from them is caught
        report = compute_g(spec("5/2", m_i=(1,), m_ii=(1, 2)))
        with pytest.raises(OracleMismatch):
            wronskian_direct(replace(report, g=report.g + Poly((1,))))

    def test_runs_past_the_lattice_k(self):
        # k = 6, where verify.check_report skips the oracle for its cost: the
        # oracle itself is exact at any k, z^(k(k-1)/2) * g with q = 0
        report = compute_g(spec("21/2", m_ii=(1, 2, 3, 4, 5, 6)))
        assert wronskian_direct(report) == report.g.shift_up(15)
        with pytest.raises(OracleMismatch):
            wronskian_direct(replace(report, g=report.g + Poly((1,))))


class TestOriginRecurrence:
    def test_pure_type_ii_pair(self):
        assert check_origin_recurrence(compute_g(spec("5/2", m_ii=(1, 2))))

    def test_mixed_k3(self):
        report = compute_g(spec("5/2", m_i=(1,), m_ii=(1, 2)))
        assert check_origin_recurrence(report)
        # g(0) and the sub-extension constants are both read from the report:
        # doubling g alone breaks the identity
        assert not check_origin_recurrence(replace(report, g=report.g * 2))

    def test_inapplicable(self):
        assert check_origin_recurrence(compute_g(spec("5/2", m_i=(1,), m_ii=(1,)))) is None


# -- the sub-extension route, kept as an oracle ----------------------------
#
# Each sub-extension the origin recurrence reads, built as a spec of its own
# and sent through compute_g, against the constants compute_g reads off the
# minors of the spec's own elimination.


def _sub_extensions(s):
    mII = s.m_type_ii
    return (
        replace(s, alpha=s.alpha + 1, m_type_ii=mII[:-1]),
        replace(s, alpha=s.alpha + 1, m_type_ii=mII[:-2] + (mII[-1],)),
        replace(s, alpha=s.alpha + 2, m_type_ii=mII[:-2]),
    )


# the benchmark's deep pool: type-I and type-II indices, and the alpha'
# half-steps above the largest type-II index
DEEP_SKELETONS = (
    ((15,), (1, 3, 5, 6, 15), (1, 3, 5)),
    ((6, 8), (4, 5, 7, 12, 15), (2, 4, 6)),
    ((3, 10, 12, 15), (1, 2, 3, 18), (1, 3, 5)),
    ((7,), (4, 8, 9, 15, 16, 17, 18), (2, 4, 6)),
)


def _deep_pool():
    for m_i, m_ii, steps in DEEP_SKELETONS:
        k, q = len(m_i) + len(m_ii), len(m_i)
        for step in steps:
            yield ExtensionSpec(max(m_ii) + F(step, 2) - k + 2 * q, 1, m_i, m_ii)


@pytest.mark.parametrize(
    "specs, count",
    [
        pytest.param(lambda: enumerate_lattice(max_k=4, max_m=6, alpha_steps=3), 1455, id="lattice"),
        pytest.param(_deep_pool, 12, id="deep"),
        pytest.param(lambda: _inadmissible_probes(4, 6), 4718, id="inadmissible"),
    ],
)
def test_sub_constants_equal_the_sub_extensions_g0(specs, count):
    checked = 0
    for s in specs():
        if s.k - s.q < 2:
            assert compute_g(s).sub_constants is None
            continue
        report = compute_g(s)
        assert report.sub_constants == tuple(compute_g(sub).g.constant for sub in _sub_extensions(s)), s
        checked += 1
    assert checked == count


# -- the Poly gamma matrix, kept as an oracle ------------------------------
#
# Each entry a reduced Poly: a Laguerre polynomial, negated in z for type I,
# times a Pochhammer prefactor and shifted for type II.  Scaled per column
# by the lcm of the denominators, it must be the int matrix entry for entry.


def _laguerre_or_zero(n, a, negated):
    # entries with m_j - i + 1 < 0 use the zero-polynomial convention
    if n < 0:
        return Poly()
    return compose_neg(laguerre(n, a)) if negated else laguerre(n, a)


def _gamma_entry(i, j, k, q, m, ap):
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


def _gamma_matrix(k, q, ms, ap):
    return [[_gamma_entry(i, j, k, q, ms[j - 1], ap) for j in range(1, k + 1)] for i in range(1, k + 1)]


def _ref_gamma_entry(i, j, k, q, m, ap):
    """_gamma_entry with its prefactors as Fraction Pochhammer products."""
    if j <= q:
        if i <= q + 1:
            return _laguerre_or_zero(m - i + 1, ap + i - 1, negated=True)
        return _laguerre_or_zero(m - q, ap + i - 1, negated=True)
    if i <= q + 1:
        pref = ref_pochhammer(F(m + 1), i - 1)
        body = _laguerre_or_zero(m + i - 1, -ap - i + 1, negated=False)
    else:
        pref = ref_pochhammer(F(m + 1), q) * ref_pochhammer(m - ap - i + q + 2, i - q - 1)
        body = _laguerre_or_zero(m + q, -ap - i + 1, negated=False)
    return (body * pref).shift_up(k - i)


def test_gamma_matrix_matches_the_fraction_prefactor_route():
    # three alpha' steps give integer and half-integer alpha' above each bound
    checked = 0
    for s in enumerate_lattice(max_k=4, max_m=6, alpha_steps=3):
        matrix = polys(build_gamma_matrix(s))
        for i in range(1, s.k + 1):
            for j in range(1, s.k + 1):
                expect = _ref_gamma_entry(i, j, s.k, s.q, s.all_m[j - 1], s.alpha_prime)
                assert matrix[i - 1][j - 1] == expect, (s, i, j)
                checked += 1
    assert checked == 30528


# the nodal and mu30 specs of the extend ladder, a k = 6 and a k = 8 spec, and
# an integer alpha' = 3 at which the type-II prefactor (m - alpha')_1 of entry
# (2, 2) is 0
NAMED_SPECS = {
    "zero-prefactor": ("1", (), (1, 3)),
    "nodal": ("5/2", (6, 8, 10, 12), (7, 9, 11, 13)),
    "mu30": ("29/2", (2, 4, 6), (3, 5, 7)),
    "k6": ("23/2", (15,), (1, 3, 5, 6, 15)),
    "k7": ("13", (6, 8), (4, 5, 7, 12, 15)),
    "k8": ("37/2", (3, 10, 12, 15), (1, 2, 3, 18)),
    "k8-type-ii": ("13", (7,), (4, 8, 9, 15, 16, 17, 18)),
}


@pytest.mark.parametrize(
    "specs, count",
    [pytest.param(enumerate_lattice, 5551, id="lattice")]
    + [pytest.param(lambda v=v: [spec(v[0], v[1], v[2])], 1, id=name) for name, v in NAMED_SPECS.items()],
)
def test_the_int_gamma_matrix_is_the_poly_one_scaled_per_column(specs, count):
    # entry for entry, and so the same determinant, minors and packed size:
    # one content gcd per column leaves nothing the reduced Polys do not
    checked = 0
    for s in specs():
        rows, dens = build_gamma_matrix(s)
        old_rows, old_dens = columns(_gamma_matrix(s.k, s.q, s.all_m, s.alpha_prime))
        assert (rows, dens) == (old_rows, old_dens), s
        assert _packed_size(rows) == _packed_size(old_rows)
        assert poly_mat_det(rows, dens, True) == poly_mat_det(old_rows, old_dens, True)
        checked += 1
    assert checked == count


def test_a_prefactor_through_zero_is_the_zero_entry():
    rows, _ = build_gamma_matrix(spec(*NAMED_SPECS["zero-prefactor"]))
    assert rows[1][1] == [] and rows[0][1]  # trimmed, as the int form requires
    wronskian_direct(compute_g(spec(*NAMED_SPECS["zero-prefactor"])))


def _poly_route_sub_constants(s):
    """sub_constants as read from the minors of the Poly gamma matrix, which
    compute_g once asked for on every spec."""
    _, minors = poly_mat_det(*columns(_gamma_matrix(s.k, s.q, s.all_m, s.alpha_prime)), minors=True)
    if s.k - s.q < 2:
        return None
    r = s.k - s.q - 1
    last, prev, both = minors
    return last.divexact_zpow(r * r).constant, prev.divexact_zpow(r * r).constant, both.divexact_zpow((r - 1) * r).constant


def test_compute_g_asks_for_minors_only_where_it_reads_them(monkeypatch):
    asked = []

    def recording(rows, dens, minors=False):
        asked.append(minors)
        return poly_mat_det(rows, dens, minors)

    monkeypatch.setattr(wronskian, "poly_mat_det", recording)
    specs = list(enumerate_lattice(max_k=4, max_m=4, alpha_steps=2))
    reports = [compute_g(s) for s in specs]
    assert asked == [s.k - s.q >= 2 for s in specs]
    assert 0 < asked.count(False) < len(specs)
    for s, report in zip(specs, reports):
        assert report.sub_constants == _poly_route_sub_constants(s), s


def _poly_route_const(s):
    """predict_const as a product of Fraction Pochhammer symbols."""
    k, q, ap = s.k, s.q, s.alpha_prime
    out = predict_mu_sigma_lead(s)[2]
    for i, m in enumerate(s.m_type_i, start=1):
        out *= pochhammer(ap + i, m - i + 1)
    for i, m in enumerate(s.m_type_ii, start=q + 1):
        out *= pochhammer(ap - m, m + 2 * q + 1 - i)
    return out


def test_predict_const_matches_the_pochhammer_product_on_the_lattice():
    checked = 0
    for s in enumerate_lattice():
        assert predict_const(s) == _poly_route_const(s), s
        checked += 1
    assert checked == 5551


@given(
    st.fractions(min_value=F(1, 2), max_value=40, max_denominator=12),
    st.lists(st.integers(1, 14), max_size=4, unique=True),
    st.lists(st.integers(1, 14), max_size=4, unique=True),
)
@example(F(3), [1, 2], [3, 5])  # integer alpha' at which a type-II factor passes 0
def test_predict_const_matches_the_pochhammer_product(ap, m_i, m_ii):
    k, q = len(m_i) + len(m_ii), len(m_i)
    s = ExtensionSpec(ap - k + 2 * q, 1, sorted(m_i), sorted(m_ii))
    out = predict_const(s)
    assert type(out) is F and out == _poly_route_const(s)


def test_a_row_swap_raises_rather_than_read_permuted_minors(monkeypatch):
    # I:1,2 II:1,2 has a zero in row 3 of its first column (L_{-1}); a cyclic
    # shift of the first three rows keeps det, and so g, but puts that zero
    # in the (1,1) entry, so the elimination must swap rows
    s = spec("5/2", m_i=(1, 2), m_ii=(1, 2))
    rows, dens = build_gamma_matrix(s)
    assert not rows[2][0] and rows[0][0]
    shifted = [rows[2], rows[0], rows[1]] + rows[3:]
    assert poly_mat_det(shifted, dens) == poly_mat_det(rows, dens)
    monkeypatch.setattr(wronskian, "build_gamma_matrix", lambda _: (shifted, dens))
    with pytest.raises(OracleMismatch, match="swapped rows"):
        compute_g(s)


def _packed_size(rows):
    # B (D + 1), as poly_mat_det's docstring defines it: H and D each the
    # smaller of the row and the column figure
    norms = [[sum(map(abs, e)) for e in row] for row in rows]
    lens = [[len(e) for e in row] for row in rows]
    h = min(math.prod(max(1, sum(v)) for v in vs) for vs in (norms, zip(*norms)))
    d = min(sum(max(v) for v in vs) for vs in (lens, zip(*lens)))
    return (h.bit_length() + 1) * (d - len(rows) + 1)


def test_both_determinant_routes_agree_on_the_matrices_g_is_built_from(monkeypatch):
    # every gamma and Wronskian matrix of a sub-lattice and the nodal and
    # k = 6 gamma matrices, which take the packed ints, and the two k = 8
    # gamma matrices, which take the coefficient lists; each route is the
    # other's reference
    seen = []

    def recording(rows, dens, minors=False):
        seen.append((rows, dens, minors))
        return poly_mat_det(rows, dens, minors)

    monkeypatch.setattr(wronskian, "poly_mat_det", recording)
    for s in enumerate_lattice(4, 4, 2):
        wronskian_direct(compute_g(s))
    for name in ("nodal", "k6", "k8", "k8-type-ii"):
        compute_g(spec(*NAMED_SPECS[name]))
    sizes = [_packed_size(rows) for rows, _, _ in seen]
    assert len(sizes) == 2 * 324 + 4 and max(sizes[:-2]) <= _PACK_BITS < min(sizes[-2:])
    for rows, dens, minors in seen:
        packed = _bareiss(rows, dens, minors, math.inf)
        assert packed == _bareiss(rows, dens, minors, -math.inf) == poly_mat_det(rows, dens, minors)


@pytest.mark.parametrize("name", ["nodal", "k6", "k7", "k8", "k8-type-ii"])
def test_a_transposed_gamma_matrix_has_the_same_determinant_on_both_routes(name):
    # the transpose swaps the row and the column bound; over unit
    # denominators its determinant is det(rows)
    rows, _ = build_gamma_matrix(spec(*NAMED_SPECS[name]))
    ones = [1] * len(rows)
    det = _bareiss(rows, ones, False, -math.inf)
    transposed = [list(col) for col in zip(*rows)]
    assert _packed_size(transposed) == _packed_size(rows)
    assert _bareiss(transposed, ones, False, math.inf) == det == _bareiss(transposed, ones, False, -math.inf)


def test_report_pickles():
    report = compute_g(spec("5/2", m_i=(1,), m_ii=(1, 2)))
    assert pickle.loads(pickle.dumps(report)) == report


def _det_cofactor(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    out = Poly()
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        term = m[0][j] * _det_cofactor(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def test_gamma_determinant_z_power_divisibility_by_cofactor_oracle():
    # k=3, q=1: the determinant must vanish to order z^{(k-q)(k-q-1)} = z^2
    # at the origin; oracle is a full Laplace expansion, independent of the
    # Bareiss route used by compute_g
    s = spec("5/2", m_i=(1,), m_ii=(1, 2))
    det = _det_cofactor(polys(build_gamma_matrix(s)))
    assert det[0] == 0 and det[1] == 0 and det[2] != 0
    assert det.divexact_zpow(2) == compute_g(s).g


def test_column_permutation_flips_sign():
    # transposing two same-type indices flips the determinant sign, i.e.
    # the Vandermonde factor of the leading/constant coefficients
    s = spec("9/2", m_i=(1, 3), m_ii=(2,))
    sorted_det = poly_mat_det(*columns(_gamma_matrix(s.k, s.q, (1, 3, 2), s.alpha_prime)))
    swapped_det = poly_mat_det(*columns(_gamma_matrix(s.k, s.q, (3, 1, 2), s.alpha_prime)))
    assert swapped_det == -sorted_det


def test_random_specs_outside_lattice():
    # the closed forms and the Wronskian factorization are algebraic
    # identities: they must hold for fractional alpha' (thirds, quarters)
    # and inadmissible configurations alike
    import random

    from xlag.wronskian import wronskian_direct as oracle

    rng = random.Random(11)
    ok = 0
    while ok < 30:
        k = rng.randint(1, 4)
        q = rng.randint(0, k)
        m_i = tuple(sorted(rng.sample(range(1, 7), q)))
        m_ii = tuple(sorted(rng.sample(range(1, 7), k - q)))
        ap = F(rng.randint(1, 16), rng.choice([1, 2, 3, 4]))
        try:
            s = ExtensionSpec(ap - k + 2 * q, F(rng.randint(1, 5), rng.randint(1, 3)), m_i, m_ii)
        except SpecInvalid:
            continue
        rep = compute_g(s)
        assert predictions_hold(rep), s
        oracle(rep)  # raises OracleMismatch on disagreement
        ok += 1


def test_small_lattice_invariants():
    # the full k <= 4 lattice runs in the acceptance suite; spot-check a
    # small slab here including the direct oracle
    from xlag.verify import check_extension, enumerate_lattice

    checked = 0
    for s in enumerate_lattice(max_k=3, max_m=3, alpha_steps=2):
        result = check_extension(s)
        assert result.passed, (s, result.failures)
        checked += 1
    assert checked == 82  # 41 index configurations x 2 alpha' steps
