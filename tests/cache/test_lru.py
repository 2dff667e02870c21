"""Unit + property tests for the true-LRU recency order of a cache set.

Every set keeps its ways in ``CacheSet.order``, most recently used first.
A hit moves its way to the front and reports the position it came from;
a miss evicts the least recently used enabled way once the enabled ways
are full.  These tests drive the order only through the live access path
(``SetAssociativeCache.access``) and ``import_batch_state``, the batch
kernel's write-back of reconstructed tags and orders.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry


def one_set(ways: int) -> SetAssociativeCache:
    """A single-set cache, so line address ``w`` always maps to set 0."""
    return SetAssociativeCache(
        CacheGeometry(size_bytes=64 * ways, associativity=ways, latency_cycles=1)
    )


def set_order(cache: SetAssociativeCache, order) -> None:
    rows = np.array([0])
    tags, _ts, _dirty = cache.export_batch_state(rows)
    cache.import_batch_state(rows, tags, np.array([list(order)]))


def warm(ways: int) -> SetAssociativeCache:
    """Line ``w`` resident in way ``w`` of every way, order ``0, 1, ...``."""
    cache = one_set(ways)
    for w in range(ways):
        cache.access(w, False)
    set_order(cache, range(ways))
    return cache


def touch(cache: SetAssociativeCache, way: int) -> int:
    """Hit the line held in ``way``; returns its previous recency position."""
    hit, pos, _wb = cache.access(cache.sets[0].tags[way], False)
    assert hit
    return pos


def order(cache: SetAssociativeCache) -> list[int]:
    return cache.sets[0].order


def victim(cache: SetAssociativeCache) -> int:
    """Way a miss on a fresh line fills."""
    new = 1000
    cache.access(new, False)
    return cache.sets[0].tag_map[new]


class TestBasics:
    def test_initial_order_is_identity(self):
        assert order(one_set(4)) == [0, 1, 2, 3]

    def test_len(self):
        assert len(order(one_set(7))) == 7

    def test_custom_initial_order(self):
        cache = warm(3)
        set_order(cache, [2, 0, 1])
        assert order(cache) == [2, 0, 1]

    def test_rejects_non_permutation(self):
        cache = warm(3)
        with pytest.raises(AssertionError):
            set_order(cache, [0, 0, 1])
        assert order(cache) == [0, 1, 2]

    def test_touch_moves_to_front(self):
        cache = warm(4)
        touch(cache, 2)
        assert order(cache) == [2, 0, 1, 3]

    def test_touch_returns_previous_position(self):
        cache = warm(4)
        assert touch(cache, 3) == 3
        assert touch(cache, 3) == 0

    def test_touch_mru_is_noop(self):
        cache = warm(4)
        touch(cache, 0)
        assert order(cache) == [0, 1, 2, 3]

    def test_position_of(self):
        cache = warm(4)
        touch(cache, 3)
        assert cache.probe_position(cache.sets[0].tags[3]) == 0
        assert cache.probe_position(cache.sets[0].tags[0]) == 1

    def test_lru_is_last(self):
        cache = warm(3)
        touch(cache, 2)
        assert victim(cache) == 1

    def test_lru_among_subset(self):
        # Lines in ways 0 and 1 only; ways 2 and 3 are invalid but gated,
        # so the victim is the LRU way among the enabled ones.
        cache = one_set(4)
        cache.access(0, False)
        cache.access(1, False)
        set_order(cache, [0, 1, 2, 3])
        cache.sets[0].n_active = 2
        assert victim(cache) == 1
        cache = one_set(4)
        cache.access(0, False)
        cache.sets[0].n_active = 1
        assert victim(cache) == 0

    def test_lru_among_empty_raises(self):
        cache = warm(2)
        cache.sets[0].n_active = 0
        with pytest.raises(RuntimeError, match="no enabled way"):
            cache.access(1000, False)

    def test_iteration_matches_order(self):
        cache = warm(3)
        touch(cache, 1)
        assert list(order(cache)) == [1, 0, 2]


class TestSequences:
    def test_full_mru_rotation(self):
        cache = warm(4)
        for way in [3, 2, 1, 0]:
            touch(cache, way)
        assert order(cache) == [0, 1, 2, 3]

    def test_repeated_touches_keep_permutation(self):
        cache = warm(8)
        for way in [5, 2, 5, 7, 0, 2, 2, 6, 1]:
            touch(cache, way)
        assert sorted(order(cache)) == list(range(8))
        cache.check_invariants()

    def test_untouched_way_sinks_to_lru(self):
        cache = warm(4)
        for way in [1, 2, 3, 1, 2, 3]:
            touch(cache, way)
        assert victim(cache) == 0


@given(
    ways=st.integers(min_value=1, max_value=16),
    touches=st.lists(st.integers(min_value=0, max_value=15), max_size=60),
)
def test_property_always_a_permutation(ways, touches):
    cache = warm(ways)
    for t in touches:
        touch(cache, t % ways)
    assert sorted(order(cache)) == list(range(ways))


@given(
    ways=st.integers(min_value=2, max_value=16),
    touches=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=60),
)
def test_property_last_touch_is_mru(ways, touches):
    cache = warm(ways)
    for t in touches:
        touch(cache, t % ways)
    assert cache.probe_position(touches[-1] % ways) == 0


@given(ways=st.integers(min_value=1, max_value=16))
def test_property_touch_position_matches_position_of(ways):
    cache = warm(ways)
    for way in reversed(range(ways)):
        expected = cache.probe_position(way)
        assert touch(cache, way) == expected
