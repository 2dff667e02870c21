"""Unit tests for the Refrint polyphase-dirty policy."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, RefreshConfig
from repro.edram.rpd import RefrintPolyphaseDirty


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=16 * 64 * 4, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)  # 16 sets x 4 ways = 64 lines


@pytest.fixture
def cfg() -> RefreshConfig:
    return RefreshConfig(
        retention_cycles=1_000, num_banks=4, lines_per_refresh_burst=16, rpv_phases=4
    )


@pytest.fixture
def engine(cache, cfg) -> RefrintPolyphaseDirty:
    return RefrintPolyphaseDirty(cache.state, cfg, cache)


class TestDirtyRefresh:
    def test_dirty_lines_are_refreshed_not_dropped(self, cache, engine):
        addr = cache.line_addr(3, 7)
        cache.access(addr, True, window=0)  # dirty, stamped window 0
        engine.advance_to(1_000)  # through window 4: due
        assert engine.total_refreshes == 1
        assert engine.invalidations == 0
        assert cache.contains(addr)

    def test_dirty_line_keeps_its_phase(self, cache, engine):
        addr = cache.line_addr(3, 7)
        cache.access(addr, True, window=1)
        engine.advance_to(250 * 5)  # due at window 5 (1 + 4)
        g = cache.state.gidx(3, cache.sets[3].tag_map[addr])
        assert cache.state.last_window[g] == 5


class TestCleanInvalidation:
    def test_clean_lines_are_invalidated(self, cache, engine):
        addr = cache.line_addr(3, 7)
        cache.access(addr, False, window=0)  # clean
        engine.advance_to(1_000)
        assert engine.total_refreshes == 0
        assert engine.invalidations == 1
        assert not cache.contains(addr)
        assert cache.state.valid_count() == 0

    def test_invalidation_causes_remiss(self, cache, engine):
        addr = cache.line_addr(3, 7)
        cache.access(addr, False, window=0)
        engine.advance_to(1_000)
        hit, _, _ = cache.access(addr, False, window=4)
        assert not hit

    def test_recently_touched_clean_line_survives(self, cache, engine):
        addr = cache.line_addr(3, 7)
        cache.access(addr, False, window=0)
        engine.advance_to(750)  # windows 1-3: not due yet
        cache.access(addr, False, window=3)  # re-touch postpones
        engine.advance_to(1_500)  # windows 4-6 < 3+4
        assert cache.contains(addr)
        engine.advance_to(250 * 7)  # window 7: due now
        assert not cache.contains(addr)

    def test_mixed_population(self, cache, engine):
        dirty = [cache.line_addr(s, 1) for s in range(4)]
        clean = [cache.line_addr(s, 2) for s in range(4, 10)]
        for a in dirty:
            cache.access(a, True, window=0)
        for a in clean:
            cache.access(a, False, window=0)
        engine.advance_to(1_000)
        assert engine.total_refreshes == len(dirty)
        assert engine.invalidations == len(clean)
        cache.check_invariants()


class TestValidation:
    def test_state_must_match_cache(self, cache, cfg):
        other = SetAssociativeCache(cache.geometry)
        with pytest.raises(ValueError):
            RefrintPolyphaseDirty(other.state, cfg, cache)

    def test_idle_engine_never_exceeds_valid_count(self, cache, engine):
        for s in range(8):
            cache.access(cache.line_addr(s, 1), s % 2 == 0, window=0)
        engine.advance_to(10_000)
        # Everything clean is gone, everything dirty refreshed repeatedly.
        assert cache.state.valid_count() == 4
