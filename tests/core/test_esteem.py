"""Unit tests for the interval-driven ESTEEM controller."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, EsteemConfig, MemoryConfig
from repro.core.esteem import EsteemController
from repro.mem.dram import MainMemory


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=64 * 64 * 4, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)


@pytest.fixture
def config() -> EsteemConfig:
    return EsteemConfig(
        alpha=0.95, a_min=1, num_modules=4, sampling_ratio=8, interval_cycles=1_000
    )


@pytest.fixture
def memory() -> MainMemory:
    return MainMemory(MemoryConfig())


@pytest.fixture
def ctl(cache, config, memory) -> EsteemController:
    return EsteemController(cache, config, memory)


def drive_leader_mru_traffic(cache, hits_per_leader=20):
    """Hit leader sets only at the MRU position -> one way suffices."""
    for s in range(0, cache.num_sets, 8):
        addr = cache.line_addr(s, 1)
        cache.access(addr, False)
        for _ in range(hits_per_leader):
            cache.access(addr, False)


class TestIntervalDecision:
    def test_mru_traffic_shrinks_to_a_min(self, cache, ctl):
        drive_leader_mru_traffic(cache)
        record = ctl.on_interval_end(1_000)
        assert record.n_active_way == (1, 1, 1, 1)
        assert record.interval_index == 0

    def test_zero_traffic_shrinks_to_a_min(self, ctl):
        record = ctl.on_interval_end(1_000)
        assert record.n_active_way == (1, 1, 1, 1)

    def test_histograms_reset_between_intervals(self, cache, ctl):
        drive_leader_mru_traffic(cache)
        ctl.on_interval_end(1_000)
        assert ctl.profiler.total_hits() == 0

    def test_timeline_records_grow(self, cache, ctl):
        ctl.on_interval_end(1_000)
        ctl.on_interval_end(2_000)
        assert len(ctl.timeline) == 2
        assert [r.interval_index for r in ctl.timeline] == [0, 1]

    def test_active_fraction_after_shrink(self, cache, ctl):
        ctl.on_interval_end(1_000)
        # 8 leaders full + 56 followers at 1 way of 4.
        expected = (8 * 4 + 56) / 256
        assert ctl.active_fraction() == pytest.approx(expected)

    def test_transition_delta_accounting(self, cache, ctl):
        record = ctl.on_interval_end(1_000)
        assert record.transitions == 3 * 14 * 4  # 3 ways x 14 followers x 4 modules
        assert ctl.on_interval_end(2_000).transitions == 0


class TestFlushTraffic:
    def test_dirty_flushes_posted_to_memory(self, cache, ctl, memory):
        # Fill follower sets with dirty lines in deep ways.
        for s in range(cache.num_sets):
            for t in range(1, 5):
                cache.access(cache.line_addr(s, t), True)
        before = memory.writes
        record = ctl.on_interval_end(1_000)
        assert record.flush_writebacks > 0
        assert memory.writes == before + record.flush_writebacks
        assert ctl.on_interval_end(2_000).flush_writebacks == 0

    def test_no_memory_without_injection(self, cache, config):
        ctl = EsteemController(cache, config, memory=None)
        for s in range(cache.num_sets):
            for t in range(1, 5):
                cache.access(cache.line_addr(s, t), True)
        record = ctl.on_interval_end(1_000)
        assert record.flush_writebacks > 0  # counted even without a memory


class TestDamping:
    def test_max_way_delta_limits_swing(self, cache, memory):
        cfg = EsteemConfig(
            alpha=0.95,
            a_min=1,
            num_modules=4,
            sampling_ratio=8,
            interval_cycles=1_000,
            max_way_delta=1,
        )
        ctl = EsteemController(cache, cfg, memory)
        record = ctl.on_interval_end(1_000)  # wants 1, clamped to 4-1=3
        assert record.n_active_way == (3, 3, 3, 3)
        record = ctl.on_interval_end(2_000)
        assert record.n_active_way == (2, 2, 2, 2)

    def test_guard_flag_disabled_passes_through(self, cache, memory):
        cfg = EsteemConfig(
            alpha=0.95,
            a_min=1,
            num_modules=4,
            sampling_ratio=8,
            interval_cycles=1_000,
            nonlru_guard=False,
        )
        ctl = EsteemController(cache, cfg, memory)
        record = ctl.on_interval_end(1_000)
        assert record.non_lru == (False, False, False, False)


class TestValidation:
    def test_incompatible_cache_rejected(self, cache, memory):
        cfg = EsteemConfig(num_modules=128, sampling_ratio=8, interval_cycles=1_000)
        with pytest.raises(ValueError):
            EsteemController(cache, cfg, memory)
