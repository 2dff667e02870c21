"""Write-back buffering as the model has it: posted writebacks.

The paper relies on the processor's write-back buffers to absorb the
flush traffic of a reconfiguration (Section 4).  The model keeps no
separate buffer: :class:`~repro.mem.dram.MainMemory` posts every
writeback -- the issuing core never stalls on it -- and each line
occupies the memory channel for one service time, so a burst
(``write_many``, the path reconfiguration and refresh-engine flushes
take) delays the demand reads queued behind it until it drains.
"""

import pytest

from repro.config import MemoryConfig
from repro.mem.dram import MainMemory

LATENCY = 220.0
SERVICE = 12.8  # 64 B / 10 GB/s * 2 GHz


def channel() -> MainMemory:
    return MainMemory(MemoryConfig(latency_cycles=220, bandwidth_bytes_per_sec=10e9))


def read_wait(mem: MainMemory, now: float) -> float:
    """Queueing delay a demand read issued at ``now`` pays."""
    return mem.read(now) - LATENCY


class TestConstruction:
    def test_rejects_nonpositive_drain(self):
        # The drain rate is the channel bandwidth.
        with pytest.raises(ValueError):
            MemoryConfig(bandwidth_bytes_per_sec=0)


class TestOccupancy:
    def test_initially_empty(self):
        mem = channel()
        assert read_wait(mem, 0.0) == 0.0
        assert mem.total_queue_wait == 0.0

    def test_one_push_occupies_until_drained(self):
        for now, wait in ((0.0, SERVICE), (SERVICE / 2, SERVICE / 2), (SERVICE, 0.0)):
            mem = channel()
            mem.write(0.0)
            assert read_wait(mem, now) == pytest.approx(wait)

    def test_occupancy_never_negative(self):
        mem = channel()
        mem.write_many(0.0, 4)
        assert read_wait(mem, 1000.0) == 0.0
        assert mem.total_queue_wait == 0.0


class TestStalls:
    def test_no_stall_below_capacity(self):
        # Posted: the core is never charged for a writeback, however
        # many; the channel carries them all before the next read.
        mem = channel()
        assert [mem.write(0.0) for _ in range(8)] == [0.0] * 8
        assert mem.write_many(0.0, 64) is None
        assert read_wait(mem, 0.0) == pytest.approx(72 * SERVICE)

    def test_stall_when_full(self):
        # A demand read behind a burst waits for all of it to drain.
        mem = channel()
        mem.write_many(0.0, 2)
        assert read_wait(mem, 0.0) == pytest.approx(2 * SERVICE)

    def test_drained_buffer_accepts_again(self):
        mem = channel()
        mem.write_many(0.0, 1)
        assert read_wait(mem, 100.0) == 0.0
        mem.write_many(200.0, 1)
        assert read_wait(mem, 200.0) == pytest.approx(SERVICE)

    def test_push_counter(self):
        mem = channel()
        for i in range(2):
            mem.write(i * 100.0)
        mem.write_many(300.0, 3)
        mem.write_many(400.0, 0)
        assert mem.writes == 5
        assert mem.accesses == 5

    def test_backlog_grows_under_burst(self):
        # Same-cycle bursts queue back to back: the wait grows with each.
        waits = []
        for count in range(1, 6):
            mem = channel()
            mem.write_many(0.0, count)
            waits.append(read_wait(mem, 0.0))
        assert waits == pytest.approx([SERVICE * c for c in range(1, 6)])
        mem = channel()
        mem.write_many(0.0, 2)
        mem.write_many(0.0, 3)
        assert read_wait(mem, 0.0) == pytest.approx(5 * SERVICE)
