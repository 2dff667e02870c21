"""Unit tests for per-set state: the tag map, victim choice, invalidation
and the invariant checks."""

import pytest

from repro.cache.block import LineState
from repro.cache.cache import SetAssociativeCache
from repro.cache.cacheset import CacheSet


@pytest.fixture
def state() -> LineState:
    return LineState(num_sets=4, associativity=4)


@pytest.fixture
def cset() -> CacheSet:
    return CacheSet(index=1, associativity=4)


@pytest.fixture
def cache(tiny_geometry) -> SetAssociativeCache:
    return SetAssociativeCache(tiny_geometry)


def put(cset: CacheSet, way: int, tag: int) -> None:
    """Place ``tag`` in ``way`` the way the fill paths do: list and map."""
    cset.tags[way] = tag
    cset.tag_map[tag] = way


def fill(cache, set_index, tags, writes=()):
    """Access each tag in ``set_index``; returns their line addresses."""
    addrs = [cache.line_addr(set_index, t) for t in tags]
    for t, addr in zip(tags, addrs):
        cache.access(addr, t in writes)
    return addrs


def way_of(cache, addr) -> int:
    return cache.sets[addr & cache.set_mask].tag_map.get(addr, -1)


class TestFind:
    def test_find_absent(self, cache):
        assert way_of(cache, cache.line_addr(1, 42)) == -1

    def test_find_present(self, cache):
        (addr,) = fill(cache, 1, [42])
        way = way_of(cache, addr)
        assert way >= 0 and cache.sets[1].tags[way] == addr

    def test_install_replaces_old_tag(self, cache):
        old = fill(cache, 1, [1, 2, 3, 4])
        lru_way = cache.sets[1].order[-1]
        (new,) = fill(cache, 1, [77])
        assert way_of(cache, old[lru_way]) == -1
        assert way_of(cache, new) == lru_way
        cache.check_invariants()

    def test_drop_way_forgets_tag(self, cache):
        (addr,) = fill(cache, 1, [13])
        way = way_of(cache, addr)
        assert cache.sets[1].drop_way(way) == addr
        assert way_of(cache, addr) == -1
        assert cache.sets[1].tags[way] is None
        assert cache.sets[1].drop_way(way) is None


class TestVictim:
    """Victim choice of the live access path."""

    def test_prefers_invalid_way(self, cache):
        fill(cache, 1, [1, 2, 3, 4])
        cache.invalidate_line(cache.state.gidx(1, 1))
        assert cache.sets[1].order[-1] != 1  # way 1 is not the LRU way
        (new,) = fill(cache, 1, [9])
        assert way_of(cache, new) == 1

    def test_lru_when_full(self, cache):
        fill(cache, 1, [1, 2, 3, 4])
        cache.sets[1].order = [2, 0, 3, 1]
        (new,) = fill(cache, 1, [9])
        assert way_of(cache, new) == 1

    def test_respects_disabled_ways(self, cache):
        fill(cache, 1, [1, 2])
        cache.sets[1].order = [0, 1, 2, 3]
        cache.sets[1].n_active = 2
        # Ways 2/3 are invalid but disabled; LRU among enabled is way 1.
        (new,) = fill(cache, 1, [9])
        assert way_of(cache, new) == 1
        assert cache.sets[1].tags[2:] == [None, None]


class TestFlush:
    """``invalidate_line`` drops one line and reports what it held."""

    def test_flush_empty_way(self, cache):
        tag, dirty = cache.invalidate_line(cache.state.gidx(1, 0))
        assert tag is None and not dirty

    def test_flush_clean_line(self, cache):
        (addr,) = fill(cache, 1, [99])
        g = cache.state.gidx(1, way_of(cache, addr))
        tag, dirty = cache.invalidate_line(g)
        assert tag == addr and not dirty
        assert way_of(cache, addr) == -1
        assert not cache.state.valid[g]
        cache.check_invariants()

    def test_flush_dirty_line_reports_dirty(self, cache):
        (addr,) = fill(cache, 1, [7], writes={7})
        g = cache.state.gidx(1, way_of(cache, addr))
        assert cache.state.dirty[g]
        tag, dirty = cache.invalidate_line(g)
        assert tag == addr and dirty
        assert not cache.state.dirty[g]


class TestInvariants:
    def test_consistent_state_passes(self, cset, state):
        put(cset, 0, 5)
        state.valid[state.gidx(1, 0)] = True
        cset.check_invariants(state)

    def test_detects_valid_mirror_desync(self, cset, state):
        put(cset, 0, 5)  # valid mirror not updated
        with pytest.raises(AssertionError):
            cset.check_invariants(state)

    def test_detects_tag_map_desync(self, cset, state):
        cset.tags[0] = 5  # raw write bypasses the tag -> way map
        state.valid[state.gidx(1, 0)] = True
        with pytest.raises(AssertionError):
            cset.check_invariants(state)

    def test_detects_line_in_disabled_way(self, cset, state):
        put(cset, 3, 5)
        state.valid[state.gidx(1, 3)] = True
        cset.n_active = 2
        with pytest.raises(AssertionError):
            cset.check_invariants(state)

    def test_leader_may_hold_lines_in_all_ways(self, state):
        leader = CacheSet(index=0, associativity=4, is_leader=True)
        leader.n_active = 2  # even if shrunk, leaders keep lines anywhere
        put(leader, 3, 5)
        state.valid[state.gidx(0, 3)] = True
        leader.check_invariants(state)

    def test_resident_tags(self, cset):
        cset.tags = [None, 4, None, 9]
        assert sorted(cset.resident_tags()) == [4, 9]
