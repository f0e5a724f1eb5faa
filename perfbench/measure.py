"""Closed-loop measurement: operations run one after another from one
process, each gated for correctness; a failed operation is counted and
reported, never timed and never retried.

Every operation starts with xlag's caches empty, as a fresh CLI call does:
the passes repeat the same inputs in one long-lived process, so a memo that
outlived an operation would turn every later sample into a cache hit.

Between operations a fixed loop over Fractions, which uses no xlag code, is
timed with the garbage collector off: the reference.  On a shared host
other tenants can slow a process by up to 2x for seconds to minutes, and a
run's plain median moves with them.  Each sample is divided by the mean of
the reference readings on either side of it, so the end-to-end figures are
in reference units ("ref": one reading of the loop) and stay put when the
host slows both alike.  Raw seconds are kept alongside for the printed
report.

A busy host does not slow all code alike, so there are two loops, and each
workload uses the one its operations follow: ``fraction_sum`` for short
operations on small numbers, ``remainder_sequence`` for long ones whose
numbers grow to thousands of bits (README.md, Reference units).
"""
from __future__ import annotations

import gc
import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

# candidate percentiles for the tail figure, highest last
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
MAX_FAILURE_LINES = 20


@dataclass
class Op:
    """One operation of a workload."""

    key: str  # names the spec(s) in failure messages and sample tables
    size: int  # specs checked by one call
    run: Callable[[], object]
    check: Callable[[object], list]  # result -> one message per failed spec


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    # op key -> [(seconds, mean reference reading around it, in seconds)]
    samples: dict = field(default_factory=dict)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def times(self, key, normalized: bool) -> list:
        """An op's samples in reference units, or in seconds."""
        return [t / ref if normalized else t for t, ref in self.samples.get(key, [])]


def fraction_sum():
    """The harmonic sum to 599: about 1.4 ms on an idle Xeon core."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return total


# a fixed degree-24 polynomial with 40-bit numerators and 20-bit denominators
PRS_POLY = tuple(Fraction((i * 7919 + 3) ** 3 % (1 << 40) + 1, (i * 104729) % (1 << 20) + 1) for i in range(25))


def remainder_sequence():
    """Six steps of the remainder sequence of PRS_POLY and its derivative,
    in exact rationals; numbers reach about 3,200 bits.  It takes about
    three times as long as ``fraction_sum``."""
    a = list(PRS_POLY)
    b = [c * (len(a) - 1 - i) for i, c in enumerate(a[:-1])]
    for _ in range(6):
        while len(a) >= len(b):
            q = a[0] / b[0]
            a = [x - q * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
        a, b = b, [-x for x in a]
    return b


def read_reference(loop) -> float:
    """Best of two timings of the reference ``loop``.  The collector is off
    so that the heap an operation leaves behind cannot slow the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(2):
            t0 = perf_counter()
            loop()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def xlag_modules():
    """The xlag package and its submodules imported so far."""
    return [m for n, m in list(sys.modules.items()) if n == "xlag" or n.startswith("xlag.")]


def clear_caches():
    """Empty every cache (anything with ``cache_clear``, such as an
    lru_cache) held at module level in xlag."""
    for module in xlag_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_op(op: Op, tally: Tally, before=None):
    """Run, time and gate one operation.  Untimed first: xlag's caches are
    emptied, then ``before(op)`` runs.  Returns the elapsed seconds, or None
    when the operation failed."""
    clear_caches()
    if before is not None:
        before(op)
    t0 = perf_counter()
    try:
        result = op.run()
    except Exception:
        failures = [f"{op.key}: raised\n{traceback.format_exc()}"]
    else:
        elapsed = perf_counter() - t0
        failures = op.check(result)
    tally.attempted += op.size
    if not failures:
        return elapsed
    tally.failed += min(len(failures), op.size)
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"FAIL {line}", file=sys.stderr)
    if len(failures) > MAX_FAILURE_LINES:
        print(f"FAIL {op.key}: and {len(failures) - MAX_FAILURE_LINES} more", file=sys.stderr)
    return None


def run_cycles(ops, seconds: float, tally: Tally, before=None, reference=fraction_sum) -> int:
    """Run whole passes over ``ops`` until ``seconds`` have elapsed (at
    least one pass), recording each passing operation's time together with
    the readings of ``reference`` around it; returns the number of passes."""
    deadline = perf_counter() + seconds
    cycles = 0
    ref_before = read_reference(reference)
    while True:
        for op in ops:
            elapsed = run_op(op, tally, before)
            ref_after = read_reference(reference)
            if elapsed is not None:
                tally.samples.setdefault(op.key, []).append((elapsed, (ref_before + ref_after) / 2))
            ref_before = ref_after
        cycles += 1
        if perf_counter() >= deadline:
            return cycles


def tail_percentile(times):
    """(p, value) for the highest ladder percentile with at least ten
    samples beyond it (nearest-rank), or None when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(round(p * n / 100, 6))  # round off float noise such as 9990.000000000002
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (p, ordered[rank - 1])
    return best


def op_medians(ops, tally: Tally, normalized: bool = True) -> dict:
    """Median per op key, for ops with a passing sample."""
    return {op.key: statistics.median(tally.times(op.key, normalized)) for op in ops if tally.samples.get(op.key)}


def end_to_end(ops, tally: Tally, normalized: bool = True):
    """(specs per unit time, median op time) over the ops that passed at
    least once, in reference units or in seconds.

    Both come from per-op medians, so a pass cut short by the deadline or
    one slow outlier does not move them: throughput is the specs of one
    pass over the time of one pass at median speed.
    """
    medians = op_medians(ops, tally, normalized)
    if not medians:
        return None
    size = sum(op.size for op in ops if op.key in medians)
    return size / sum(medians.values()), statistics.median(medians.values())
