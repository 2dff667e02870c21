"""Microbenchmarks of the simulator itself (true pytest-benchmark timing).

Three substrate hot paths, timed on their own: the L2 lookup/fill path,
RPV's boundary count, by scan and by the fast loop's tally, and the batch
kernel's build on a hit-dominated and a miss-dominated pass.  Useful for
catching performance regressions in the substrate.  The end-to-end
simulation rate per technique is measured by ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, RefreshConfig
from repro.edram.rpv import RefrintPolyphaseValid
from repro.timing.batch_kernel import build_batch
from repro.workloads.trace import Trace


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


@pytest.mark.parametrize("mix", ["hit", "miss"])
def bench_batch_build(benchmark, mix):
    """``build_batch`` over 50,000 records on a cold 512 KB, 16-way L2.

    ``hit`` draws from 4,096 lines, half the cache, so every record but
    the first touch of a line hits (92%); ``miss`` draws from 4M lines,
    so nearly every record misses and 84% of them evict, 30% of those a
    dirty line.
    The build only reads the cache, so every round times the same work.
    """
    cache = SetAssociativeCache(
        CacheGeometry(size_bytes=512 * 1024, associativity=16)
    )
    rng = np.random.default_rng(2)
    n = 50_000
    trace = Trace(
        name=mix,
        addrs=rng.integers(0, 4_096 if mix == "hit" else 1 << 22, size=n),
        writes=rng.random(n) < 0.3,
        gaps=np.ones(n, dtype=np.int64),
    )
    kb = benchmark(build_batch, cache, trace, 0, n)
    assert kb is not None
