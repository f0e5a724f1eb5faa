"""Record the exact-output digests the benchmark's gate compares against.

Covers every input any seed can produce: g of each deep spec, and g plus
the exceptional polynomials y of each extend rung.  Run from the repository
root, and only on a commit whose exact oracles pass:

    python3 perfbench/record_digests.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs src on the path)
from xlag import wronskian  # noqa: E402


def main() -> int:
    digests = {}
    for spec in workloads.deep_pool():
        g = wronskian.compute_g(spec).g
        digests[workloads.spec_label(spec)] = workloads.digest(workloads.coeff_strings(g))
    out = HERE.parent / ".perfbench_out" / "record-digests.json"
    out.parent.mkdir(exist_ok=True)
    for name, rung in workloads.RUNGS.items():
        for alpha in workloads.rung_alphas(rung):
            label = workloads.extend_label(name, alpha, rung.seeds)
            code = workloads.call_cli(["extend", "--alpha", alpha, "--seeds", rung.seeds, "--out", str(out)])
            if code != 0:
                print(f"{label}: exit code {code}", file=sys.stderr)
                return 1
            digests[label] = workloads.extend_digest(json.loads(out.read_text()))
    out.unlink()
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {workloads.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
