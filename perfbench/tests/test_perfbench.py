"""Tests of the benchmark itself:  python3 -m pytest -q perfbench/tests"""
import dataclasses
import functools
import json
import sys
from functools import partial
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measure import Op, Tally, end_to_end, run_cycles, run_op, tail_percentile, xlag_modules  # noqa: E402
from tracing import Tracer, layer_totals, self_times  # noqa: E402
from xlag import verify, wronskian  # noqa: E402


def span(name, start, end, parent=None):
    return [name, start, end, parent, None]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),  # overlaps a: the union is [1, 5]
        span("a.inner", 1.5, 2.0, parent=1),
        span("late", 9.0, 12.0, parent=0),  # clipped to the parent's end
        span("other", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 2 - 0.5, 3, 0.5, 3, 1])
    totals = layer_totals(spans + [span("a", 30.0, 30.25)])
    assert totals["a"] == (2, pytest.approx(1.75))


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95),
     (1000, 99), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    tail = tail_percentile(samples)
    if expected is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected
    assert sum(1 for s in samples if s > value) >= 10


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def keys(seed):
        w = workloads.build(name, seed, tmp_path)
        return [op.key for op in w.ops], w.warmup.key

    assert keys(7) == keys(7)


def test_seeds_move_the_seeded_workloads():
    for name in ("deep", "extend-mu5", "extend-mu30"):
        seen = {tuple(op.key for op in workloads.build(name, s, Path(".")).ops) for s in range(20)}
        assert len(seen) > 1, name


def test_lattice_chunks_cover_the_enumeration_in_order(tmp_path):
    w = workloads.build("lattice", 1, tmp_path)
    specs = list(verify.enumerate_lattice(**workloads.LATTICE))
    assert sum(op.size for op in w.ops) == len(specs) == w.par_op.size == 324
    assert max(op.size for op in w.ops) == workloads.LATTICE_CHUNK
    checks = [op.check.args[0] for op in w.ops]  # the specs each chunk's gate expects
    assert [spec for chunk in checks for spec in chunk] == specs


def test_every_seedable_input_has_a_recorded_digest():
    digests = workloads.load_digests()
    for spec in workloads.deep_pool():
        assert workloads.spec_label(spec) in digests
    for name, rung in workloads.RUNGS.items():
        for alpha in workloads.rung_alphas(rung):
            assert workloads.extend_label(name, alpha, rung.seeds) in digests


def light_deep_op(fault):
    spec = workloads.deep_pool()[0]  # degree 40, about 0.1 s
    op = workloads.deep_op(spec, workloads.load_digests())
    return dataclasses.replace(op, run=partial(verify.check_extension, spec, negate_const_sign=fault))


def test_gate_counts_a_deliberate_fault_and_never_times_it(capsys):
    tally = Tally()
    run_cycles([light_deep_op(fault=False)], 0, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    faulty = light_deep_op(fault=True)
    run_op(faulty, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failed_frac == 0.5
    assert len(tally.samples[faulty.key]) == 1  # only the clean run was timed
    err = capsys.readouterr().err
    assert faulty.key in err and "const" in err


def test_a_memo_across_operations_gives_no_hit(monkeypatch):
    """Passes repeat the same spec in one process; each operation must still
    compute g from scratch, as a fresh CLI call would."""
    original = wronskian.compute_g
    memo = functools.lru_cache(maxsize=None)(original)
    for module in xlag_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, memo)
    spec = workloads.deep_pool()[0]
    misses = []

    def run():
        before = memo.cache_info().misses
        result = verify.check_extension(spec)
        misses.append(memo.cache_info().misses - before)
        return result

    op = dataclasses.replace(workloads.deep_op(spec, workloads.load_digests()), run=run)
    tally = Tally()
    run_cycles([op], 0, tally)  # the gate's digest check leaves g in the memo
    run_cycles([op], 0, tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    assert misses[0] == misses[1] >= 1


def test_digest_mismatch_is_a_failure():
    spec = workloads.deep_pool()[0]
    op = workloads.deep_op(spec, {})
    tally = Tally()
    run_op(op, tally)
    assert tally.failed == 1 and not tally.samples


def test_extend_rung_passes_its_gate(tmp_path):
    op = workloads.extend_op("mu5", workloads.pick_alpha("mu5", 1), tmp_path / "doc.json", workloads.load_digests())
    tally = Tally()
    run_op(op, tally)
    assert (tally.attempted, tally.failed) == (1, 0)
    assert not (tmp_path / "doc.json").exists()


def test_nonzero_exit_is_a_failure_never_a_sample(tmp_path, capsys):
    out = tmp_path / "doc.json"
    # the ROADMAP shorthand is not valid seed syntax; the CLI exits 2
    label = "extend mu5 --alpha 7/2 --seeds I:1 II:1,2"
    argv = ["extend", "--alpha", "7/2", "--seeds", "I:1 II:1,2", "--out", str(out)]
    check = partial(workloads.check_extend, label, workloads.RUNGS["mu5"], out, workloads.load_digests())
    op = Op(label, 1, partial(workloads.call_cli, argv), check)
    tally = Tally()
    run_op(op, tally)
    assert (tally.attempted, tally.failed, tally.samples) == (1, 1, {})
    assert "exit code 2" in capsys.readouterr().err


def test_times_are_divided_by_the_reference_around_them():
    tally = Tally(samples={"op": [(2.0, 1.0), (4.0, 2.0), (9.0, 3.0)]})
    assert tally.times("op", normalized=True) == [2.0, 2.0, 3.0]
    ops = [Op("op", 4, None, None)]
    assert end_to_end(ops, tally) == (2.0, 2.0)
    assert end_to_end(ops, tally, normalized=False) == (1.0, 4.0)


def test_long_workloads_use_the_big_rational_reference(tmp_path):
    chain = measure.remainder_sequence()
    assert chain == measure.remainder_sequence()
    assert max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in chain) > 3000
    uses = {name: workloads.build(name, 1, tmp_path).reference for name in workloads.WORKLOADS}
    assert {name for name, ref in uses.items() if ref is measure.remainder_sequence} == {"deep", "extend-nodal"}


def test_exception_is_a_failure():
    def boom():
        raise ValueError("bad")

    tally = Tally()
    run_op(Op("boom", 3, boom, lambda result: []), tally)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert end_to_end([Op("boom", 3, boom, lambda result: [])], tally) is None


def test_tracer_records_nested_spans_through_importing_modules():
    original = wronskian.compute_g
    spec = workloads.deep_pool()[0]
    tracer = Tracer()
    with tracer.installed():
        assert verify.compute_g is not original
        workloads.deep_op(spec, {}).run()
    assert wronskian.compute_g is original and verify.compute_g is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "verify.check_extension"
    by_index = dict(enumerate(tracer.spans))
    for s in tracer.spans[1:]:
        assert s[3] is not None and s[4] == workloads.spec_label(spec)
    det_parents = {by_index[s[3]][0] for s in tracer.spans if s[0] == "exactmath.poly_mat_det"}
    assert det_parents == {"wronskian.compute_g"}
    assert tracer.g_bits_max == max(
        max(c.numerator.bit_length(), c.denominator.bit_length()) for c in wronskian.compute_g(spec).g.coeffs
    )
    assert tracer.sturm_lengths == [41]  # square-free degree-40 g: 41 chain members


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
