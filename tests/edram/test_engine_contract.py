"""Contract tests every refresh engine must satisfy."""

from dataclasses import replace

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, RefreshConfig
from repro.edram.decay import CacheDecayRefresh
from repro.edram.ecc import EccExtendedRefresh
from repro.edram.refresh import (
    EsteemDrowsyRefresh,
    EsteemValidActiveRefresh,
    NoRefresh,
    PeriodicAllRefresh,
    PeriodicValidRefresh,
)
from repro.edram.rpd import RefrintPolyphaseDirty
from repro.edram.rpv import RefrintPolyphaseValid

CFG = RefreshConfig(
    retention_cycles=1_000, num_banks=4, lines_per_refresh_burst=16, rpv_phases=4
)


def make_engine(name):
    cache = SetAssociativeCache(
        CacheGeometry(size_bytes=16 * 64 * 4, associativity=4, latency_cycles=1)
    )
    # Populate some lines (mixed clean/dirty) stamped in window 0.
    for s in range(16):
        for t in range(1, 4):
            cache.access(cache.line_addr(s, t), t == 1, window=0)
    state = cache.state
    builders = {
        "baseline": lambda: PeriodicAllRefresh(state, CFG),
        "periodic-valid": lambda: PeriodicValidRefresh(state, CFG),
        "esteem": lambda: EsteemValidActiveRefresh(state, CFG),
        "esteem-drowsy": lambda: EsteemDrowsyRefresh(state, CFG),
        "no-refresh": lambda: NoRefresh(state, CFG),
        "rpv": lambda: RefrintPolyphaseValid(state, CFG),
        "rpd": lambda: RefrintPolyphaseDirty(state, CFG, cache),
        "decay": lambda: CacheDecayRefresh(state, CFG, cache, decay_windows=8),
        "ecc": lambda: EccExtendedRefresh(
            state, replace(CFG, ecc_extension_factor=2), cache
        ),
    }
    return cache, builders[name]()

ENGINES = [
    "baseline", "periodic-valid", "esteem", "esteem-drowsy",
    "no-refresh", "rpv", "rpd", "decay", "ecc",
]


@pytest.mark.parametrize("name", ENGINES)
class TestEngineContract:
    def test_advance_is_monotone_and_idempotent(self, name):
        cache, eng = make_engine(name)
        eng.advance_to(5_000)
        total = eng.total_refreshes
        boundaries = eng.boundaries
        eng.advance_to(5_000)
        eng.advance_to(4_000)
        assert eng.total_refreshes == total
        assert eng.boundaries == boundaries

    def test_incremental_advance_equivalent(self, name):
        _, inc = make_engine(name)
        for t in range(0, 8_001, 137):
            inc.advance_to(t)
        inc.advance_to(8_000)
        _, one = make_engine(name)
        one.advance_to(8_000)
        assert inc.total_refreshes == one.total_refreshes

    def test_stall_and_counts_nonnegative(self, name):
        _, eng = make_engine(name)
        eng.advance_to(10_000)
        assert eng.total_refreshes >= 0
        assert eng.access_stall() >= 0.0
        assert eng.take_writeback_delta() >= 0

    def test_delta_accounting_conserves(self, name):
        _, eng = make_engine(name)
        eng.advance_to(3_000)
        d1 = eng.take_refresh_delta()
        eng.advance_to(9_000)
        d2 = eng.take_refresh_delta()
        assert d1 + d2 == eng.total_refreshes

    def test_never_refreshes_more_than_baseline_per_boundary_budget(self, name):
        """No engine may exceed the periodic-all rate over a long horizon."""
        _, eng = make_engine(name)
        _, base = make_engine("baseline")
        horizon = 40_000
        eng.advance_to(horizon)
        base.advance_to(horizon)
        assert eng.total_refreshes <= base.total_refreshes * 1.01

    def test_window_index_consistent(self, name):
        _, eng = make_engine(name)
        assert eng.window_index(0) == 0
        assert eng.window_index(CFG.phase_cycles) == 1

    def test_cache_invariants_hold_after_engine_activity(self, name):
        cache, eng = make_engine(name)
        eng.advance_to(20_000)
        cache.check_invariants()
