import sys

import pytest

from xlag.verify import run_lattice


@pytest.fixture(scope="session")
def lattice_results():
    """Full default lattice (k <= 4, m <= 6, 7 alpha' steps) with the direct
    Wronskian oracle on every member; shared across the acceptance tests.
    At 5,551 specs run_lattice pools on every CPU the process may run on."""
    return run_lattice(max_k=4, max_m=6, alpha_steps=7)


def xlag_memos():
    """Every memo held at module level in xlag: anything with a `cache_clear`,
    as perfbench's clear_caches finds them."""
    modules = [m for name, m in list(sys.modules.items()) if name == "xlag" or name.startswith("xlag.")]
    return [v for m in modules for v in vars(m).values() if callable(getattr(v, "cache_clear", None))]


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with every xlag memo empty, so a fault it plants
    below a memo is not hidden by what an earlier test built."""
    for memo in xlag_memos():
        memo.cache_clear()
