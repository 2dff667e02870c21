"""Microbenchmarks of the simulator itself (true pytest-benchmark timing).

Two substrate hot paths, timed on their own: the L2 lookup/fill path and
RPV's boundary count, by scan and by the fast loop's tally.  Useful for
catching performance regressions in the substrate (the optimisation
guide's "no optimization without measuring").  The end-to-end simulation rate, fast path against
reference loop, is measured and gated by ``benchmarks/check_throughput.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, RefreshConfig
from repro.edram.rpv import RefrintPolyphaseValid


def bench_cache_access_hot_path(benchmark):
    """Throughput of the L2 lookup/fill path (accesses per second)."""
    geo = CacheGeometry(size_bytes=4 * 1024 * 1024, associativity=16)
    cache = SetAssociativeCache(geo)
    rng = np.random.default_rng(1)
    addrs = rng.integers(0, 200_000, size=20_000).tolist()
    writes = (rng.random(20_000) < 0.3).tolist()

    def run():
        access = cache.access
        for a, w in zip(addrs, writes):
            access(a, w, 0)

    benchmark(run)


@pytest.mark.parametrize("path", ["scan", "tally"])
def bench_rpv_boundary_scan(benchmark, path):
    """RPV's due-line count per boundary over a full-size 4 MB cache.

    ``scan`` is the vectorised count over every line (the reference loop,
    faulted runs); ``tally`` is the lookup the fast loop's per-class
    tally gives each boundary.
    """
    from repro.cache.block import LineState

    state = LineState(num_sets=4096, associativity=16)
    state.valid[:] = True
    # Staggered stale stamps, as the warm L2 image seeds them: no stamp
    # is ahead of the engine's first window.
    state.last_window[:] = -(np.arange(state.num_lines) % 4)
    cfg = RefreshConfig(retention_cycles=100_000)
    engine = RefrintPolyphaseValid(state, cfg)
    if path == "tally":
        engine.arm_tally()
    horizon = {"t": 0}

    def run():
        horizon["t"] += 1_000_000
        engine.advance_to(horizon["t"])

    benchmark(run)
