"""Unit tests for the way-gating reconfiguration controller."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry
from repro.core.modules import ModuleMap
from repro.core.reconfig import ReconfigurationController


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=64 * 64 * 4, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)  # 64 sets x 4 ways


@pytest.fixture
def mm() -> ModuleMap:
    return ModuleMap(num_sets=64, num_modules=4, sampling_ratio=8)


@pytest.fixture
def ctl(cache, mm) -> ReconfigurationController:
    # Mark leaders the way the profiler would.
    leaders = set(mm.leaders())
    for cset in cache.sets:
        cset.is_leader = cset.index in leaders
    return ReconfigurationController(cache, mm)


def fill_module(cache, mm, module, dirty=False):
    first, last = mm.set_range(module)
    for s in range(first, last):
        for t in range(1, 5):
            cache.access(cache.line_addr(s, t), dirty)


class TestShrink:
    def test_clean_lines_discarded(self, cache, mm, ctl):
        fill_module(cache, mm, 0, dirty=False)
        stats = ctl.apply([2, 4, 4, 4])
        assert stats.writebacks == []
        assert stats.clean_discards == 2 * len(mm.followers_in(0))
        assert stats.modules_changed == 1

    def test_dirty_lines_written_back(self, cache, mm, ctl):
        fill_module(cache, mm, 0, dirty=True)
        stats = ctl.apply([3, 4, 4, 4])
        assert len(stats.writebacks) == len(mm.followers_in(0))
        # Every writeback address maps back into module 0's follower sets.
        for addr in stats.writebacks:
            s = cache.set_index(addr)
            assert mm.module_of(s) == 0
            assert not mm.is_leader(s)

    def test_leaders_untouched(self, cache, mm, ctl):
        fill_module(cache, mm, 0, dirty=False)
        ctl.apply([1, 4, 4, 4])
        leader = mm.leaders_in(0)[0]
        assert len(cache.sets[leader].resident_tags()) == 4
        assert cache.sets[leader].n_active == 4

    def test_followers_shrunk(self, cache, mm, ctl):
        fill_module(cache, mm, 0, dirty=False)
        ctl.apply([2, 4, 4, 4])
        for s in mm.followers_in(0):
            assert cache.sets[s].n_active == 2
            assert len(cache.sets[s].resident_tags()) <= 2
        cache.check_invariants()

    def test_transition_count(self, cache, mm, ctl):
        stats = ctl.apply([1, 4, 4, 4])
        assert stats.transitions == 3 * len(mm.followers_in(0))

    def test_active_mask_updated(self, cache, mm, ctl):
        ctl.apply([1, 4, 4, 4])
        state = cache.state
        follower = mm.followers_in(0)[0]
        base = follower * 4
        assert list(state.active[base : base + 4]) == [True, False, False, False]
        for leader in mm.leaders_in(0):
            assert state.active[leader * 4 : leader * 4 + 4].all()


class TestGrow:
    def test_grow_counts_transitions_without_flush(self, cache, mm, ctl):
        ctl.apply([1, 4, 4, 4])
        fill_module(cache, mm, 0, dirty=True)
        stats = ctl.apply([4, 4, 4, 4])
        assert stats.writebacks == []
        assert stats.clean_discards == 0
        assert stats.transitions == 3 * len(mm.followers_in(0))

    def test_grown_ways_usable(self, cache, mm, ctl):
        ctl.apply([1, 4, 4, 4])
        ctl.apply([4, 4, 4, 4])
        s = mm.followers_in(0)[0]
        for t in range(1, 5):
            cache.access(cache.line_addr(s, t), False)
        assert len(cache.sets[s].resident_tags()) == 4


class TestAccounting:
    def test_no_change_is_free(self, cache, mm, ctl):
        stats = ctl.apply([4, 4, 4, 4])
        assert stats.transitions == 0
        assert stats.modules_changed == 0

    def test_active_fraction_includes_leaders(self, cache, mm, ctl):
        ctl.apply([1, 1, 1, 1])
        # 8 leader sets fully on (8*4 lines) + 56 followers at 1 way.
        expected = (8 * 4 + 56 * 1) / (64 * 4)
        assert ctl.active_fraction() == pytest.approx(expected)

    def test_active_fraction_matches_mask(self, cache, mm, ctl):
        ctl.apply([2, 1, 4, 3])
        assert ctl.active_fraction() == cache.state.active.mean()

    def test_active_fraction_when_rs_does_not_divide_module(self):
        # 4 MB L2: 512 sets per module, R_s = 3 leaves modules with 170
        # or 171 leaders.  F_A is the powered share of the line mask.
        cache = SetAssociativeCache(
            CacheGeometry(size_bytes=4 * 1024 * 1024, associativity=16)
        )
        mm = ModuleMap(4096, 8, 3)
        ctl = ReconfigurationController(cache, mm)
        assert ctl.active_fraction() == 1.0
        ctl.apply([4] * 8)
        leaders = -(-4096 // 3)
        expected = (leaders * 16 + (4096 - leaders) * 4) / (4096 * 16)
        assert ctl.active_fraction() == expected == cache.state.active.mean()

    def test_invalid_decision_rejected(self, cache, mm, ctl):
        with pytest.raises(ValueError):
            ctl.apply([0, 4, 4, 4])
        with pytest.raises(ValueError):
            ctl.apply([5, 4, 4, 4])
        with pytest.raises(ValueError):
            ctl.apply([4, 4, 4])


class TestDataIntegrity:
    def test_no_dirty_data_lost_on_shrink(self, cache, mm, ctl):
        """Writeback conservation: every dirty line in a flushed way is
        reported, so nothing silently disappears."""
        fill_module(cache, mm, 0, dirty=True)
        # Record dirty lines residing in ways 2-3 of module 0 followers.
        expected = set()
        state = cache.state
        for s in mm.followers_in(0):
            for w in (2, 3):
                tag = cache.sets[s].tags[w]  # tags store full addresses
                if tag is not None and state.dirty[state.gidx(s, w)]:
                    expected.add(tag)
        stats = ctl.apply([2, 4, 4, 4])
        assert set(stats.writebacks) == expected
