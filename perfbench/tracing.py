"""Spans recorded from outside the program, and the per-layer numbers
derived from them.

The tracer wraps each traced function wherever a module holds a reference
to it.  xlag's modules import with ``from .x import f``, so wrapping only
the defining module would miss every call made through the importing
module's own name (``verify.certify``, ``cli.solve_eop``, ...).  Spans are
kept in memory and written out by the caller when the run ends.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from measure import xlag_modules

# <module>.<function> of every traced layer, as defined in the xlag package
TRACED = (
    "verify.check_extension",
    "wronskian.compute_g",
    "wronskian.wronskian_direct",
    "wronskian.check_origin_recurrence",
    "exactmath.poly_mat_det",
    "exactmath.poly_gcd",
    "exactmath.rational_nullspace",
    "regularity.certify",
    "regularity.sturm_sequence",
    "spectral.solve_eop",
    "spectral.orthogonality_check",
    "spectral.numeric_spectrum",
    "spectral.build_potential",
    "report.build_document",
    "cli.main",
)

SPAN_FIELDS = ("name", "start", "end", "parent", "spec")


def spec_label(spec) -> str:
    """Names an ExtensionSpec in spans and failure messages."""
    return f"alpha={spec.alpha} I={list(spec.m_type_i)} II={list(spec.m_type_ii)}"


def coeff_bits(poly) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


class Tracer:
    """In-memory span recorder.

    Each span is a list ``[name, start, end, parent, spec]``: perf_counter
    seconds, the index of the enclosing span (None at the root) and the
    label of the spec being worked on.  ``spec`` is set by the caller for
    each operation and narrowed by ``verify.check_extension`` to the spec
    it checks.
    """

    def __init__(self):
        self.spans = []
        self.spec = None
        self.g_bits_max = 0
        self.sturm_lengths = []
        self._open = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._open
        narrows_spec = name == "verify.check_extension"
        observe = {
            "wronskian.compute_g": self._observe_g,
            "regularity.sturm_sequence": self._observe_chain,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_spec = self.spec
            if narrows_spec:
                self.spec = spec_label(args[0])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.spec]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                self.spec = outer_spec
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_g(self, report):
        self.g_bits_max = max(self.g_bits_max, coeff_bits(report.g))

    def _observe_chain(self, chain):
        self.sturm_lengths.append(len(chain))

    @contextmanager
    def installed(self):
        """Replace every module-level reference to a traced function inside
        xlag by its wrapper; the originals come back on exit."""
        modules = xlag_modules()
        patched = []
        try:
            for qualname in TRACED:
                modname, fname = qualname.split(".")
                original = getattr(sys.modules[f"xlag.{modname}"], fname)
                wrapper = self.wrap(qualname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by the union of its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def layer_totals(spans):
    """{span name: (calls, total self seconds)}."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    return {name: (calls[name], self_s[name]) for name in calls}
