"""Unit tests for the main-memory model."""

import pytest

from repro.config import MemoryConfig
from repro.mem.dram import MainMemory


@pytest.fixture
def mem() -> MainMemory:
    # service time = 64 B / 10 GB/s * 2 GHz = 12.8 cycles
    return MainMemory(MemoryConfig(latency_cycles=220, bandwidth_bytes_per_sec=10e9))


class TestService:
    def test_service_cycles_from_bandwidth(self, mem):
        assert mem.service_cycles == pytest.approx(12.8)

    def test_higher_bandwidth_shorter_service(self):
        fast = MainMemory(MemoryConfig(bandwidth_bytes_per_sec=15e9))
        assert fast.service_cycles == pytest.approx(64 / 15e9 * 2e9)


class TestReads:
    def test_uncontended_read_pays_base_latency(self, mem):
        assert mem.read(1000.0) == pytest.approx(220.0)

    def test_back_to_back_reads_queue(self, mem):
        first = mem.read(0.0)
        second = mem.read(0.0)
        assert first == pytest.approx(220.0)
        assert second == pytest.approx(220.0 + 12.8)

    def test_spaced_reads_do_not_queue(self, mem):
        mem.read(0.0)
        assert mem.read(100.0) == pytest.approx(220.0)

    def test_queue_wait_accumulates(self, mem):
        for _ in range(4):
            mem.read(0.0)
        assert mem.total_queue_wait == pytest.approx(12.8 * (1 + 2 + 3))


class TestWrites:
    def test_writes_are_posted(self, mem):
        assert mem.write(0.0) == 0.0

    def test_writes_occupy_bandwidth(self, mem):
        mem.write(0.0)
        assert mem.read(0.0) == pytest.approx(220.0 + 12.8)

    def test_counters(self, mem):
        mem.read(0.0)
        mem.write(0.0)
        mem.write(0.0)
        assert mem.reads == 1
        assert mem.writes == 2
        assert mem.accesses == 3


class TestAccounting:
    def test_delta_extraction(self, mem):
        # Interval energy accounting takes deltas of the monotonic
        # ``accesses`` counter (A_MM); posted bursts count per line.
        start = mem.accesses
        mem.read(0.0)
        mem.write(0.0)
        assert mem.accesses - start == 2
        mid = mem.accesses
        assert mem.accesses - mid == 0
        mem.write_many(100.0, 3)
        mem.write_many(100.0, 0)
        assert mem.accesses - mid == 3

    def test_non_monotonic_arrivals_tolerated(self, mem):
        mem.read(1000.0)
        # An arrival "in the past" (multi-core interleave skew) still works.
        latency = mem.read(990.0)
        assert latency >= 220.0
