"""xlag benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; xlag is imported from the checkout's
``src``.  Prints an environment record and one summary line per figure,
then, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``.perfbench_out/trace-<workload>-seed<n>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from measure import Tally, end_to_end, op_medians, run_cycles, run_op, tail_percentile
from tracing import SPAN_FIELDS, TRACED, Tracer, layer_totals

# xlag runs on one BLAS thread, like the single-process caller the closed
# loop models; set before numpy is imported here or in any child (README.md, Load)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# fresh-interpreter set-ups per run, on top of the run's own
SETUP_PROBES = 4

# times are in reference units (see measure.py); setup_s is wall seconds
END_TO_END_UNITS = {"setup_s": "s", "specs_per_ref": "1/ref", "op_median_ref": "ref", "peak_rss_mb": "MB"}


PER_LAYER_UNITS = {
    "wronskian.compute_g.calls_per_spec": "calls/spec",
    **{f"{name}.self_s": "s" for name in TRACED},
    "exactmath.poly_mat_det.calls": "count",
    "exactmath.poly_gcd.calls": "count",
    "regularity.sturm_len_mean": "count",
    "exactmath.g_bits_max": "bits",
    "verify.par_efficiency": "ratio",
    "setup.import_s": "s",
    "tracing.overhead_frac": "ratio",
}


def setup(workload: str, seed):
    """Import xlag, generate the inputs and run one gated warm-up operation.

    Returns (workload, tally, import seconds, set-up seconds).
    """
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports xlag

    import_s = perf_counter() - t0
    import xlag

    if not Path(xlag.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported xlag from {xlag.__file__}, not from {SRC}")
    w = workloads.build(workload, seed, OUT_DIR)
    tally = Tally()
    run_op(w.warmup, tally)
    return w, tally, import_s, perf_counter() - t0


def probe_setups(workload: str, seed, tally: Tally):
    """Set up again in fresh interpreters; their warm-ups join the tally."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True,
            text=True,
            timeout=170,
            cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        tally.attempted += probe["attempted"]
        tally.failed += probe["failed"]
        probes.append(probe)
    return probes


def peak_rss_mb() -> float:
    """Largest resident set of this process so far; xlag runs inside it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    # the ceiling stops git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(workload: str, seed) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "XLAG_THREADS": os.environ.get("XLAG_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def report_ops(ops, tally: Tally, phase: str = ""):
    for op in ops:
        seconds = tally.times(op.key, normalized=False)
        if not seconds:
            print(f"{phase}op {op.key}: no passing sample")
            continue
        tail = tail_percentile(seconds)
        tail_text = f"p{tail[0]:g} {tail[1]:.6f} s" if tail else "no percentile has >= 10 samples beyond it"
        print(f"{phase}op {op.key}: n={len(seconds)}, median {statistics.median(seconds):.6f} s "
              f"= {statistics.median(tally.times(op.key, normalized=True)):.4f} ref, {tail_text}")


def report_headline(w, tally: Tally, phase: str = ""):
    """The workload's figure in seconds, under the defining issue's name."""
    specs_per_s, op_median_s = end_to_end(w.ops, tally, normalized=False)
    if w.name.startswith("extend-"):
        print(f"{phase}extend_{w.name[len('extend-'):]}_s = {op_median_s:.6g} s")
    else:
        print(f"{phase}specs_per_s = {specs_per_s:.6g} 1/s")
    refs = [ref for samples in tally.samples.values() for _, ref in samples]
    print(f"{phase}ref = {statistics.median(refs) * 1e3:.4f} ms (median reading)")


def end_to_end_metrics(w, args, tally, setup_s):
    cycles = run_cycles(w.ops, args.seconds, tally, reference=w.reference)
    figures = end_to_end(w.ops, tally)
    if figures is None:
        return None
    rss = peak_rss_mb()
    probes = probe_setups(w.name, args.seed, tally)
    setups = [setup_s] + [p["setup_s"] for p in probes]
    setup_median = statistics.median(setups)
    report_ops(w.ops, tally)
    report_headline(w, tally)
    print(f"{cycles} passes; failed_frac = {tally.failed}/{tally.attempted} = {tally.failed_frac:g}")
    print(f"setup_s = {setup_median:.4f} s (median of {len(setups)} set-ups); peak_rss_mb = {rss:.1f} MB")
    return {"setup_s": setup_median, "specs_per_ref": figures[0], "op_median_ref": figures[1], "peak_rss_mb": rss}


def per_layer_metrics(w, args, tally, import_s):
    """Alternate untraced and traced passes for ``--seconds``, so both see
    the same host; layer figures are per traced pass over the workload's ops."""
    untraced, traced = Tally(), Tally()
    tracer = Tracer()

    def label(op):
        tracer.spec = op.key

    deadline = perf_counter() + args.seconds
    cycles = 0
    while True:
        # the lattice's untraced pass adds a 2-worker run_lattice
        run_cycles(w.ops + ([w.par_op] if w.par_op else []), 0, untraced, reference=w.reference)
        with tracer.installed():
            run_cycles(w.ops, 0, traced, before=label, reference=w.reference)
        cycles += 1
        if perf_counter() >= deadline:
            break
    for phase in (untraced, traced):
        tally.attempted += phase.attempted
        tally.failed += phase.failed
    plain, with_spans = end_to_end(w.ops, untraced), end_to_end(w.ops, traced)
    if plain is None or with_spans is None:
        return None
    report_ops(w.ops, untraced, "untraced ")
    report_headline(w, untraced, "untraced ")
    report_ops(w.ops, traced, "traced ")

    par_efficiency = 0.0
    if w.par_op and untraced.samples.get(w.par_op.key):
        # the chunks are run_lattice(workers=1)'s loop over the same specs:
        # a serial pass takes the sum of their medians
        serial = sum(op_medians(w.ops, untraced).values())
        par = op_medians([w.par_op], untraced)[w.par_op.key]
        par_efficiency = serial / (2 * par)
        par_s = op_medians([w.par_op], untraced, normalized=False)[w.par_op.key]
        print(f"par_specs_per_s = {w.par_op.size / par_s:.6g} 1/s (run_lattice, 2 workers)")
    totals = layer_totals(tracer.spans)
    calls = {name: n for name, (n, _) in totals.items()}
    probes = probe_setups(w.name, args.seed, tally)
    metrics = {
        "wronskian.compute_g.calls_per_spec": calls.get("wronskian.compute_g", 0) / traced.attempted,
        **{f"{name}.self_s": totals.get(name, (0, 0.0))[1] / cycles for name in TRACED},
        "exactmath.poly_mat_det.calls": calls.get("exactmath.poly_mat_det", 0) / cycles,
        "exactmath.poly_gcd.calls": calls.get("exactmath.poly_gcd", 0) / cycles,
        "regularity.sturm_len_mean": statistics.fmean(tracer.sturm_lengths) if tracer.sturm_lengths else 0.0,
        "exactmath.g_bits_max": tracer.g_bits_max,
        "verify.par_efficiency": par_efficiency,
        "setup.import_s": statistics.median([import_s] + [p["import_s"] for p in probes]),
        "tracing.overhead_frac": with_spans[1] / plain[1] - 1,
    }
    print(f"traced {cycles} passes, {len(tracer.spans)} spans; tracing overhead "
          f"{metrics['tracing.overhead_frac']:+.1%} on the median op")
    print(f"failed_frac = {tally.failed}/{tally.attempted} = {tally.failed_frac:g}")
    path = OUT_DIR / f"trace-{w.name}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "environment": environment(w.name, args.seed),
        "per_layer": metrics,
        "span_fields": SPAN_FIELDS,
        "spans": tracer.spans,
    }))
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark xlag on one workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xlag" / "__init__.py").is_file():
        print(f"error: no xlag sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    w, tally, import_s, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "setup_s": setup_s, "attempted": tally.attempted,
                          "failed": tally.failed}))
        return 0
    print("env " + json.dumps(environment(w.name, args.seed)))
    if args.trace:
        metrics, units = per_layer_metrics(w, args, tally, import_s), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(w, args, tally, setup_s), END_TO_END_UNITS
    if metrics is None:
        print("error: no operation passed its checks; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
