"""Per-core cycle accounting (system S4).

The cores are in-order with an additive latency model, mirroring the simple
timing platform of Section 6.1: every instruction costs the workload's base
CPI (which folds in issue width and L1-hit latency for LLC-mode traces),
and every L2-level access adds the L2 latency, any refresh-collision stall,
and -- on a miss -- the main-memory latency including queueing delay.
"""

from __future__ import annotations

from repro.timing.result import CoreResult
from repro.workloads.trace import Trace, TraceCursor

__all__ = ["CoreState"]


class CoreState:
    """Mutable per-core simulation state."""

    __slots__ = (
        "core_id",
        "cursor",
        "addr_offset",
        "base_cpi",
        "mem_mlp",
        "cycles",
        "instructions",
        "first_pass_cycles",
        "first_pass_instructions",
    )

    def __init__(self, core_id: int, trace: Trace, addr_offset: int) -> None:
        self.core_id = core_id
        self.cursor = TraceCursor(trace)
        self.addr_offset = addr_offset
        self.base_cpi = trace.base_cpi
        self.mem_mlp = trace.mem_mlp
        self.cycles = 0.0
        self.instructions = 0
        self.first_pass_cycles = 0.0
        self.first_pass_instructions = 0

    @property
    def wrapped(self) -> bool:
        return self.cursor.wraps > 0

    def retire(self, gap: int, access_latency: float) -> None:
        """Advance time past ``gap`` plain instructions + one L2 access."""
        self.cycles += (gap + 1) * self.base_cpi + access_latency
        self.instructions += gap + 1

    def note_wrap_if_any(self) -> None:
        """Record the measured window the first time the trace wraps."""
        if self.cursor.wraps == 1 and self.first_pass_cycles == 0.0:
            self.first_pass_cycles = self.cycles
            self.first_pass_instructions = self.instructions

    def result(self, workload: str) -> CoreResult:
        return CoreResult(
            core_id=self.core_id,
            workload=workload,
            first_pass_instructions=self.first_pass_instructions,
            first_pass_cycles=self.first_pass_cycles,
            total_instructions=self.instructions,
            wraps=self.cursor.wraps,
        )
