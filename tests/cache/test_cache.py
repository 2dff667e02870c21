"""Unit tests for the set-associative cache model."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry
from repro.core.atd import ATDProfiler
from repro.core.modules import ModuleMap


@pytest.fixture
def cache(tiny_geometry) -> SetAssociativeCache:
    return SetAssociativeCache(tiny_geometry, name="L2test")


def addr_for(cache: SetAssociativeCache, set_index: int, tag: int) -> int:
    return cache.line_addr(set_index, tag)


class TestAddressing:
    def test_geometry_derivation(self, cache):
        assert cache.num_sets == 64
        assert cache.associativity == 4
        assert cache.set_bits == 6

    def test_set_index_uses_low_bits(self, cache):
        assert cache.set_index(0b101_000011) == 0b000011

    def test_tag_roundtrip(self, cache):
        addr = addr_for(cache, 13, 0xABC)
        assert cache.set_index(addr) == 13
        assert addr >> cache.set_bits == 0xABC


class TestHitMiss:
    def test_first_access_misses(self, cache):
        hit, pos, wb = cache.access(100, False)
        assert not hit and pos == -1 and wb == -1

    def test_second_access_hits_at_mru(self, cache):
        cache.access(100, False)
        hit, pos, wb = cache.access(100, False)
        assert hit and pos == 0 and wb == -1

    def test_hit_position_reflects_recency(self, cache):
        a = addr_for(cache, 5, 1)
        b = addr_for(cache, 5, 2)
        c = addr_for(cache, 5, 3)
        for x in (a, b, c):
            cache.access(x, False)
        # a is now at recency position 2.
        hit, pos, _ = cache.access(a, False)
        assert hit and pos == 2

    def test_distinct_sets_do_not_interfere(self, cache):
        a = addr_for(cache, 1, 7)
        b = addr_for(cache, 2, 7)
        cache.access(a, False)
        hit, _, _ = cache.access(b, False)
        assert not hit

    def test_stats_count_hits_and_misses(self, cache):
        cache.access(7, False)
        cache.access(7, False)
        cache.access(8, False)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.accesses == 3

    def test_hits_by_position_histogram(self, cache):
        a = addr_for(cache, 0, 1)
        b = addr_for(cache, 0, 2)
        cache.access(a, False)
        cache.access(b, False)
        cache.access(a, False)  # hit at position 1
        cache.access(a, False)  # hit at position 0
        assert cache.stats.hits_by_position[0] == 1
        assert cache.stats.hits_by_position[1] == 1


class TestEviction:
    def test_lru_victim_selected(self, cache):
        addrs = [addr_for(cache, 3, t) for t in range(1, 6)]
        for a in addrs[:4]:
            cache.access(a, False)
        cache.access(addrs[4], False)  # evicts tag 1 (LRU)
        assert not cache.contains(addrs[0])
        assert all(cache.contains(a) for a in addrs[1:])

    def test_clean_eviction_no_writeback(self, cache):
        for t in range(1, 6):
            cache.access(addr_for(cache, 3, t), False)
        assert cache.stats.writebacks == 0

    def test_dirty_eviction_writes_back_correct_address(self, cache):
        victim = addr_for(cache, 3, 1)
        cache.access(victim, True)  # dirty
        for t in range(2, 5):
            cache.access(addr_for(cache, 3, t), False)
        _, _, wb = cache.access(addr_for(cache, 3, 5), False)
        assert wb == victim
        assert cache.stats.writebacks == 1

    def test_write_hit_marks_dirty(self, cache):
        a = addr_for(cache, 0, 9)
        cache.access(a, False)
        cache.access(a, True)
        for t in range(10, 13):
            cache.access(addr_for(cache, 0, t), False)
        _, _, wb = cache.access(addr_for(cache, 0, 13), False)
        assert wb == a

    def test_refill_after_eviction_misses_then_hits(self, cache):
        a = addr_for(cache, 3, 1)
        cache.access(a, False)
        for t in range(2, 6):
            cache.access(addr_for(cache, 3, t), False)
        hit, _, _ = cache.access(a, False)
        assert not hit
        hit, _, _ = cache.access(a, False)
        assert hit


class TestWayGating:
    def test_disabled_ways_shrink_effective_associativity(self, cache):
        cset = cache.sets[3]
        cset.n_active = 2
        addrs = [addr_for(cache, 3, t) for t in range(1, 4)]
        for a in addrs:
            cache.access(a, False)
        # Only 2 ways: tag1 must have been evicted by tag3.
        assert not cache.contains(addrs[0])
        assert cache.contains(addrs[1])
        assert cache.contains(addrs[2])

    def test_victim_prefers_invalid_enabled_way(self, cache):
        cset = cache.sets[0]
        cset.n_active = 3
        a = addr_for(cache, 0, 1)
        cache.access(a, False)
        b = addr_for(cache, 0, 2)
        cache.access(b, False)
        # Third access goes into way 2 (invalid), evicting nothing.
        c = addr_for(cache, 0, 3)
        _, _, wb = cache.access(c, False)
        assert wb == -1
        assert cache.contains(a) and cache.contains(b) and cache.contains(c)

    def test_grow_way_count_reuses_empty_ways(self, cache):
        cset = cache.sets[0]
        cset.n_active = 2
        for t in range(1, 3):
            cache.access(addr_for(cache, 0, t), False)
        cset.n_active = 4
        for t in range(3, 5):
            cache.access(addr_for(cache, 0, t), False)
        assert all(cache.contains(addr_for(cache, 0, t)) for t in range(1, 5))

    def test_no_enabled_way_raises_instead_of_corrupting(self, cache):
        # Regression: with every way gated and none invalid-enabled, the
        # victim scan used to fall through with -1 and the fill landed in
        # ``cset.base - 1`` -- the *previous set's* last way.  It must be
        # an error instead.
        cache.sets[1].n_active = 0
        with pytest.raises(RuntimeError, match="no enabled way"):
            cache.access(addr_for(cache, 1, 7), False)
        # The neighbouring set's state was not touched.
        assert cache.sets[0].tags == [None] * cache.associativity
        assert not cache.state.valid[: cache.associativity].any()


class TestStateMirror:
    def test_valid_mirror_tracks_fills(self, cache):
        cache.access(addr_for(cache, 0, 1), False)
        cache.access(addr_for(cache, 1, 1), True)
        assert cache.state.valid_count() == 2

    def test_dirty_mirror_tracks_writes(self, cache):
        cache.access(addr_for(cache, 0, 1), True)
        cache.access(addr_for(cache, 0, 2), False)
        assert int(cache.state.dirty.sum()) == 1

    def test_window_stamping(self, cache):
        a = addr_for(cache, 0, 1)
        cache.access(a, False, window=7)
        g = cache.state.gidx(0, 0)
        assert cache.state.last_window[g] == 7

    def test_invalidate_all_resets(self, cache):
        cache.access(addr_for(cache, 0, 1), True)
        cache.invalidate_all()
        assert cache.state.valid_count() == 0
        assert not cache.contains(addr_for(cache, 0, 1))

    def test_invariants_hold_after_traffic(self, cache):
        for i in range(500):
            cache.access((i * 37) % 1024, i % 3 == 0)
        cache.check_invariants()


class TestProbes:
    def test_probe_position_does_not_promote(self, cache):
        a = addr_for(cache, 0, 1)
        b = addr_for(cache, 0, 2)
        cache.access(a, False)
        cache.access(b, False)
        assert cache.probe_position(a) == 1
        assert cache.probe_position(a) == 1  # unchanged

    def test_probe_missing_line(self, cache):
        assert cache.probe_position(12345) == -1

    def test_resident_lines_roundtrip(self, cache):
        addrs = {addr_for(cache, s, s + 1) for s in range(10)}
        for a in addrs:
            cache.access(a, False)
        assert set(cache.resident_lines()) == addrs


class TestLeaderProfilingHook:
    def test_leader_hits_recorded_per_module(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        # Leaders every 8th set, two modules of 32 sets.
        hist = ATDProfiler(cache, ModuleMap(64, 2, 8)).hist
        leader_addr = cache.line_addr(8, 5)  # set 8 is a leader, module 0
        cache.access(leader_addr, False)
        cache.access(leader_addr, False)
        assert hist[0][0] == 1
        follower_addr = cache.line_addr(9, 5)
        cache.access(follower_addr, False)
        cache.access(follower_addr, False)
        assert sum(map(sum, hist)) == 1  # follower hit not recorded

    def test_no_hook_no_crash(self, tiny_geometry):
        cache = SetAssociativeCache(tiny_geometry)
        cache.sets[8].is_leader = True
        a = cache.line_addr(8, 3)
        cache.access(a, False)
        cache.access(a, False)  # leader hit without hook installed
        assert cache.stats.hits == 1
