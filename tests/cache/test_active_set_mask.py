"""Cache-level tests for the narrowable active-set mask.

The selective-sets controller exercises this through its own tests; these
check the cache primitive in isolation.
"""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=64 * 64 * 4, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)  # 64 sets


class TestMaskNarrowing:
    def test_default_mask_covers_all_sets(self, cache):
        assert cache.active_set_mask == 63

    def test_narrowed_mask_folds_indices(self, cache):
        cache.active_set_mask = 15
        high = cache.line_addr(40, 7)  # natural set 40
        cache.access(high, False)
        # Resident in set 40 % 16 == 8.
        assert high in cache.sets[8].tag_map
        assert cache.contains(high)

    def test_aliasing_addresses_share_a_set(self, cache):
        cache.active_set_mask = 15
        a = cache.line_addr(8, 1)
        b = cache.line_addr(24, 1)  # 24 % 16 == 8: now aliases with a
        cache.access(a, False)
        cache.access(b, False)
        assert len(cache.sets[8].resident_tags()) == 2
        assert cache.contains(a) and cache.contains(b)

    def test_full_address_tags_prevent_false_hits(self, cache):
        cache.active_set_mask = 15
        a = cache.line_addr(8, 1)
        b = cache.line_addr(24, 1)  # same folded set, same "classic" tag bits
        cache.access(a, False)
        hit, _, _ = cache.access(b, False)
        assert not hit  # must miss: different line despite aliasing

    def test_widening_mask_back(self, cache):
        cache.active_set_mask = 15
        cache.access(cache.line_addr(8, 1), False)
        cache.invalidate_all()
        cache.active_set_mask = 63
        addr = cache.line_addr(40, 7)
        cache.access(addr, False)
        assert addr in cache.sets[40].tag_map
