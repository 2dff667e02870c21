"""Main-memory latency / bandwidth / queue model (system S3).

The paper's platform models main memory as a 220-cycle latency with
"memory queue contention also modeled" and a bandwidth of 10 GB/s
(single-core) or 15 GB/s (dual-core) (Section 6.1).

We model the memory channel as a single FIFO server: each line transfer
occupies the channel for ``64 B / bandwidth`` seconds, arrivals queue
behind it, and a demand read pays ``fixed latency + queueing delay``.
Writebacks are *posted* -- they occupy channel bandwidth (and therefore
delay later reads) but do not stall the issuing core, which matches the
paper's note that write-back buffers absorb flush traffic (Section 4).
"""

from __future__ import annotations

from repro.config import MemoryConfig

__all__ = ["MainMemory"]


class MainMemory:
    """Fixed-latency memory behind a bandwidth-limited FIFO channel."""

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.service_cycles = config.service_cycles
        self.latency_cycles = config.latency_cycles
        self._next_free = 0.0
        self.reads = 0
        self.writes = 0
        self.total_queue_wait = 0.0

    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total line transfers (``A_MM`` in the energy model, Eq. 7)."""
        return self.reads + self.writes

    def read(self, now: float) -> float:
        """Fetch one line at cycle ``now``; returns the total read latency."""
        wait = self._enqueue(now)
        self.reads += 1
        return self.latency_cycles + wait

    def write(self, now: float) -> float:
        """Post one writeback at cycle ``now``; returns 0 (non-blocking)."""
        self._enqueue(now)
        self.writes += 1
        return 0.0

    def write_many(self, now: float, count: int) -> None:
        """Post ``count`` writebacks at once (refresh-engine flush bursts)."""
        if count <= 0:
            return
        start = self._next_free if self._next_free > now else now
        self._next_free = start + count * self.service_cycles
        self.writes += count

    # ------------------------------------------------------------------

    def _enqueue(self, now: float) -> float:
        start = self._next_free if self._next_free > now else now
        wait = start - now
        self._next_free = start + self.service_cycles
        self.total_queue_wait += wait
        return wait
