"""Workload inputs, their operations and the correctness gate of each.

Inputs come from the workload name and ``--seed`` only; the program sees
just the generated specs or argv.  See README.md for why each workload
exists and which layers it stresses.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

# ops look functions up on the module at call time, so a tracer's wrappers apply
from xlag import cli, verify, wronskian
from xlag.wronskian import ExtensionSpec

from measure import Op, fraction_sum, remainder_sequence
from tracing import spec_label

DIGESTS = Path(__file__).resolve().parent / "digests.json"

# fixed sub-lattice of the default invariant lattice (k <= 4, m <= 6): 324 specs
LATTICE = {"max_k": 4, "max_m": 4, "alpha_steps": 2}
# the warm-up's lattice: 32 specs
LATTICE_WARMUP = {"max_k": 1, "max_m": 4, "alpha_steps": 4}
# specs per timed chunk: about 50 ms, so the reference readings around a
# chunk see the host in the same state as the chunk did
LATTICE_CHUNK = 18

# (type-I indices, type-II indices, alpha' half-steps above max type-II the
# seed picks from).  Degrees 40/56/68/80 at k = 6/7/8/8.  Each window keeps
# one parity: integer and half-integer alpha' differ in cost by up to 1.6x,
# so a window mixing them would make the seed, not the code, move the figure.
DEEP_SKELETONS = (
    ((15,), (1, 3, 5, 6, 15), (1, 3, 5)),
    ((6, 8), (4, 5, 7, 12, 15), (2, 4, 6)),
    ((3, 10, 12, 15), (1, 2, 3, 18), (1, 3, 5)),
    ((7,), (4, 8, 9, 15, 16, 17, 18), (2, 4, 6)),
)


@dataclass(frozen=True)
class Rung:
    """One spec of the extend ladder.  ``steps`` are the alpha' half-steps
    above max type-II the seed picks from; ``alpha`` fixes the spec when
    there is no choice.  ``roots`` is the recorded positive root count of
    an irregular rung (None: the rung must be regular)."""

    seeds: str
    mu: int
    steps: tuple = ()
    alpha: str = None
    roots: int = None


RUNGS = {
    "mu5": Rung("I:1,II:1,II:2", 5, steps=(3, 5, 7)),
    "mu30": Rung("I:2,I:4,I:6,II:3,II:5,II:7", 30, steps=(13, 15, 17)),
    "nodal": Rung("I:6,I:8,I:10,I:12,II:7,II:9,II:11,II:13", 80, alpha="5/2", roots=4),
}

WORKLOADS = ("lattice", "deep") + tuple(f"extend-{r}" for r in RUNGS)

ORTHOGONALITY_BOUND = 1e-8
SPECTRUM_BOUND = 1e-3


@dataclass
class Workload:
    name: str
    ops: list  # one pass, run in order
    warmup: Op
    # run_lattice with 2 workers over the same specs as ``ops``; the traced
    # run sets it against the serial pass for verify.par_efficiency
    par_op: Op = None
    # the loop whose readings the samples are divided by (measure.py)
    reference: Callable = fraction_sum


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def coeff_strings(poly):
    return [str(c) for c in poly.coeffs]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


# --- lattice ---------------------------------------------------------------


def check_lattice(specs, results):
    if len(results) != len(specs):
        return [f"run_lattice returned {len(results)} results for {len(specs)} enumerated specs"] * len(specs)
    failures = []
    for spec, r in zip(specs, results):
        if r.spec != spec:
            failures.append(f"{spec_label(spec)}: result out of enumeration order ({spec_label(r.spec)})")
        elif not r.passed:
            failures.append(f"{spec_label(spec)}: failed {r.failures}")
    return failures


def par_lattice_op() -> Op:
    """run_lattice over LATTICE with 2 worker processes."""
    specs = list(verify.enumerate_lattice(**LATTICE))
    key = "run_lattice({}, workers=2)".format(", ".join(f"{k}={v}" for k, v in LATTICE.items()))
    return Op(
        key,
        len(specs),
        lambda: verify.run_lattice(workers=2, **LATTICE),
        partial(check_lattice, specs),
    )


def lattice_chunk_op(specs, start: int) -> Op:
    """check_extension over consecutive lattice specs: the loop that
    run_lattice(workers=1) runs."""
    return Op(
        f"lattice specs {start}-{start + len(specs) - 1}",
        len(specs),
        lambda: [verify.check_extension(spec) for spec in specs],
        partial(check_lattice, specs),
    )


def lattice_chunks(params: dict):
    specs = list(verify.enumerate_lattice(**params))
    return [lattice_chunk_op(specs[i:i + LATTICE_CHUNK], i) for i in range(0, len(specs), LATTICE_CHUNK)]


# --- deep ------------------------------------------------------------------


def skeleton_spec(m_i, m_ii, step) -> ExtensionSpec:
    k, q = len(m_i) + len(m_ii), len(m_i)
    alpha_prime = max(m_ii) + Fraction(step, 2)
    return ExtensionSpec(alpha_prime - k + 2 * q, 1, m_i, m_ii)


def deep_specs(seed):
    rng = random.Random(f"deep:{seed}")
    return [skeleton_spec(m_i, m_ii, rng.choice(steps)) for m_i, m_ii, steps in DEEP_SKELETONS]


def deep_pool():
    """Every spec any seed can give the deep workload."""
    return [skeleton_spec(m_i, m_ii, s) for m_i, m_ii, steps in DEEP_SKELETONS for s in steps]


def deep_op(spec: ExtensionSpec, digests: dict) -> Op:
    """check_extension on one spec; its g must match the recorded digest,
    which is checked once per op (untimed, by a separate compute_g)."""
    label = spec_label(spec)
    digest_ok = None

    def check(result):
        nonlocal digest_ok
        failures = [] if result.passed else [f"{label}: failed {result.failures}"]
        if digest_ok is None:
            digest_ok = digest(coeff_strings(wronskian.compute_g(spec).g)) == digests.get(label)
        if not digest_ok:
            failures.append(f"{label}: g differs from its recorded digest")
        return failures

    return Op(label, 1, lambda: verify.check_extension(spec), check)


# --- extend ----------------------------------------------------------------


def rung_alphas(rung: Rung):
    """Every alpha the rung can run at."""
    if rung.alpha:
        return [rung.alpha]
    m_i, m_ii = cli.parse_seeds(rung.seeds)
    k, q = len(m_i) + len(m_ii), len(m_i)
    return [str(max(m_ii) + Fraction(step, 2) - k + 2 * q) for step in rung.steps]


def pick_alpha(name: str, seed) -> str:
    return random.Random(f"extend-{name}:{seed}").choice(rung_alphas(RUNGS[name]))


def extend_label(name: str, alpha: str, seeds: str) -> str:
    return f"extend {name} --alpha {alpha} --seeds {seeds}"


def extend_digest(doc) -> str:
    levels = doc.get("eop", {}).get("levels", [])
    return digest({"g": doc["g"]["coefficients"], "y": [lv["coefficients"] for lv in levels]})


def call_cli(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv by exiting
        return exc.code if isinstance(exc.code, int) else 1


def check_extend(label: str, rung: Rung, out: Path, digests: dict, code: int):
    if code != 0:
        return [f"{label}: exit code {code}"]
    doc = json.loads(out.read_text())
    out.unlink()
    failures = []
    if not doc["g"]["predictions_hold"]:
        failures.append("g predictions do not hold")
    if doc["g"]["degree"] != rung.mu:
        failures.append(f"deg g = {doc['g']['degree']}, expected {rung.mu}")
    cert = doc["certificate"]
    if rung.roots is None:
        numeric = doc["numeric"] or {}
        off = numeric.get("orthogonality_max_offdiag")
        dev = numeric.get("spectrum_max_rel_dev")
        if not cert["regular"]:
            failures.append("regular=false")
        if off is None or not off < ORTHOGONALITY_BOUND:
            failures.append(f"orthogonality_max_offdiag = {off}")
        if dev is None or not dev < SPECTRUM_BOUND:
            failures.append(f"spectrum_max_rel_dev = {dev}")
    elif cert["regular"] is not False or cert["root_count_positive_axis"] != rung.roots:
        failures.append(
            f"expected regular=false with {rung.roots} positive roots, got regular={cert['regular']} "
            f"with {cert['root_count_positive_axis']}"
        )
    if extend_digest(doc) != digests.get(label):
        failures.append("g or y differs from its recorded digest")
    return [f"{label}: {'; '.join(failures)}"] if failures else []


def extend_op(name: str, alpha: str, out: Path, digests: dict) -> Op:
    """In-process ``xlag extend`` with numeric checks, written to ``out``."""
    rung = RUNGS[name]
    label = extend_label(name, alpha, rung.seeds)
    argv = ["extend", "--alpha", alpha, "--seeds", rung.seeds, "--out", str(out)]
    return Op(label, 1, partial(call_cli, argv), partial(check_extend, label, rung, out, digests))


# --- assembly --------------------------------------------------------------


def build(name: str, seed, out_dir: Path) -> Workload:
    """The workload's operations for this seed; nothing runs yet."""
    if name == "lattice":
        warmup = lattice_chunk_op(list(verify.enumerate_lattice(**LATTICE_WARMUP)), 0)
        return Workload(name, lattice_chunks(LATTICE), warmup, par_op=par_lattice_op())
    digests = load_digests()
    if name == "deep":
        ops = [deep_op(spec, digests) for spec in deep_specs(seed)]
        return Workload(name, ops, ops[0], reference=remainder_sequence)
    if name.startswith("extend-") and name[len("extend-"):] in RUNGS:
        rung = name[len("extend-"):]
        op = extend_op(rung, pick_alpha(rung, seed), out_dir / f"extend-{rung}.json", digests)
        # every rung warms up on mu5, the cheapest call that runs every module
        warmup = extend_op("mu5", pick_alpha("mu5", seed), out_dir / "extend-warmup.json", digests)
        # nodal is certify's gcds and Sturm chain on big rationals, as on deep
        reference = remainder_sequence if rung == "nodal" else fraction_sum
        return Workload(name, [op], warmup, reference=reference)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
