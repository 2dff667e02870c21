"""Unit tests for the selective-sets reconfiguration baseline."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, EsteemConfig, MemoryConfig
from repro.core.selective_sets import (
    MIN_SET_FRACTION,
    SelectiveSetsController,
    _ceil_pow2,
    _floor_pow2,
)
from repro.mem.dram import MainMemory


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=64 * 64 * 4, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)  # 64 sets x 4 ways


@pytest.fixture
def config() -> EsteemConfig:
    return EsteemConfig(
        alpha=0.95, a_min=1, num_modules=4, sampling_ratio=8, interval_cycles=1_000
    )


@pytest.fixture
def memory() -> MainMemory:
    return MainMemory(MemoryConfig())


@pytest.fixture
def ctl(cache, config, memory) -> SelectiveSetsController:
    return SelectiveSetsController(cache, config, memory)


def drive_mru_traffic(cache):
    """Leader-set MRU-only hits: one way's worth of capacity suffices."""
    for s in range(0, cache.num_sets, 8):
        addr = cache.line_addr(s, 1)
        cache.access(addr, False)
        for _ in range(20):
            cache.access(addr, False)


class TestPow2Helpers:
    def test_ceil(self):
        assert _ceil_pow2(1) == 1
        assert _ceil_pow2(3) == 4
        assert _ceil_pow2(16) == 16
        assert _ceil_pow2(17) == 32

    def test_floor(self):
        assert _floor_pow2(1) == 1
        assert _floor_pow2(3) == 2
        assert _floor_pow2(16) == 16


class TestDecision:
    def test_mru_traffic_shrinks_set_count(self, cache, ctl):
        drive_mru_traffic(cache)
        record = ctl.on_interval_end(1_000)
        # 1 of 4 ways covers the hits -> 16 of 64 sets.
        assert record.active_fraction == 16 / 64
        assert record.n_active_way == (1,)
        assert record.non_lru == (False,)
        assert cache.active_set_mask == 15

    def test_power_of_two_rounding_up(self, cache, memory):
        cfg = EsteemConfig(
            alpha=0.95, a_min=3, num_modules=4, sampling_ratio=8,
            interval_cycles=1_000,
        )
        ctl = SelectiveSetsController(cache, cfg, memory)
        drive_mru_traffic(cache)
        record = ctl.on_interval_end(1_000)
        # 3/4 of 64 sets = 48 -> rounds up to 64 (full size).
        assert record.n_active_way == (3,)
        assert record.active_fraction == 1.0

    def test_min_fraction_floor(self, config, memory):
        # 32 ways: one way covers the hits, i.e. 2 of 64 sets, below the
        # 1/16 floor of 4 sets.
        cache = SetAssociativeCache(
            CacheGeometry(size_bytes=64 * 64 * 32, associativity=32)
        )
        ctl = SelectiveSetsController(cache, config, memory)
        drive_mru_traffic(cache)
        record = ctl.on_interval_end(1_000)
        assert record.n_active_way == (1,)
        assert record.active_fraction == MIN_SET_FRACTION == 4 / 64


class TestReconfigurationFlush:
    def test_reconfiguration_flushes_whole_cache(self, cache, ctl):
        drive_mru_traffic(cache)
        assert cache.state.valid_count() > 0
        record = ctl.on_interval_end(1_000)
        assert record.active_fraction < 1.0
        assert cache.state.valid_count() == 0

    def test_dirty_lines_written_back(self, cache, ctl, memory):
        for s in range(0, cache.num_sets, 8):
            cache.access(cache.line_addr(s, 1), True)  # dirty leaders
            cache.access(cache.line_addr(s, 1), True)
        before = memory.writes
        record = ctl.on_interval_end(1_000)
        assert record.flush_writebacks == 8
        assert memory.writes == before + 8

    def test_no_change_no_flush(self, cache, memory):
        cfg = EsteemConfig(
            alpha=0.95, a_min=4, num_modules=4, sampling_ratio=8,
            interval_cycles=1_000,
        )
        ctl = SelectiveSetsController(cache, cfg, memory)
        drive_mru_traffic(cache)
        record = ctl.on_interval_end(1_000)  # a_min=4 -> full size, no change
        assert record.active_fraction == 1.0
        assert record.transitions == record.flush_writebacks == 0
        assert cache.state.valid_count() > 0

    def test_accesses_remap_after_shrink(self, cache, ctl):
        drive_mru_traffic(cache)
        ctl.on_interval_end(1_000)
        # An address that used to map to set 40 now maps within 16 sets.
        addr = cache.line_addr(40, 3)
        cache.access(addr, False)
        assert cache.contains(addr)
        assert cache.set_index(addr) == 40
        assert (addr & cache.active_set_mask) == 8  # 40 % 16
        cache.check_invariants()


class TestAccounting:
    def test_active_mask_updated(self, cache, ctl):
        drive_mru_traffic(cache)
        ctl.on_interval_end(1_000)
        state = cache.state
        assert state.active[: 16 * 4].all()
        assert not state.active[16 * 4 :].any()
        assert ctl.active_fraction() == pytest.approx(0.25)

    def test_transition_delta(self, cache, ctl):
        drive_mru_traffic(cache)
        record = ctl.on_interval_end(1_000)
        assert record.transitions == (64 - 16) * 4
        assert record.clean_discards == cache.num_sets // 8
        # No traffic: Algorithm 1 keeps 1 way, the set count holds.
        assert ctl.on_interval_end(2_000).transitions == 0

    def test_timeline_grows(self, cache, ctl):
        ctl.on_interval_end(1_000)
        ctl.on_interval_end(2_000)
        assert [r.interval_index for r in ctl.timeline] == [0, 1]
