"""Instruction-level simulation through the full L1 -> L2 hierarchy.

The headline experiments use LLC-mode traces (post-L1-filtered; see
DESIGN.md section 1), but the substrate includes the complete two-level
hierarchy.  :class:`FullHierarchySystem` interprets trace records as *L1*
accesses: every load/store probes a private 32 KB L1 first; L1 misses and
dirty L1 evictions go to the shared eDRAM L2, which runs whatever refresh
technique was selected, including ESTEEM reconfiguration.

Latency model (additive, Section 6.1 parameters): every memory access pays
the L1 latency; an L1 miss adds the L2 latency plus any refresh-collision
stall; an L2 miss adds the main-memory latency (scaled by the workload's
memory-level parallelism).  Writebacks at both levels are posted.

Use this for instruction-level traces (e.g. converted from a binary
instrumentation tool); for the paper's experiments the LLC-mode
:class:`~repro.timing.system.System` is both faster and sufficient.
"""

from __future__ import annotations

from repro.cache.hierarchy import TwoLevelHierarchy
from repro.config import SimConfig
from repro.timing.core_model import CoreState
from repro.timing.system import System
from repro.workloads.trace import Trace

__all__ = ["FullHierarchySystem"]


class FullHierarchySystem(System):
    """A :class:`System` whose traces are L1-level access streams."""

    def __init__(
        self,
        config: SimConfig,
        traces: list[Trace],
        technique: str = "baseline",
    ) -> None:
        super().__init__(config, traces, technique)
        self.hierarchies: list[TwoLevelHierarchy] = [
            TwoLevelHierarchy(config.l1, self.l2, core_id=i)
            for i in range(config.num_cores)
        ]
        #: Per-level service counters (diagnostics).
        self.l1_hits = 0
        self.l1_misses = 0

    def _service(
        self,
        core: CoreState,
        addr: int,
        is_write: bool,
        now: int,
        window: int,
    ) -> float:
        hier = self.hierarchies[core.core_id]
        result = hier.access(addr, is_write, window)
        latency = float(self.config.l1.latency_cycles)
        if result.l1_hit:
            self.l1_hits += 1
            return latency
        self.l1_misses += 1
        latency += self.config.l2.latency_cycles + self.engine.current_stall
        if self.l2.drowsy_flag:
            latency += self.config.esteem.drowsy_wakeup_cycles
            self.l2.drowsy_flag = False
        for _wb in result.memory_writebacks:
            self.memory.write(now)
        if result.l2_hit is False:
            latency += self.memory.read(now) / core.mem_mlp
        return latency

    @property
    def l1_hit_rate(self) -> float:
        total = self.l1_hits + self.l1_misses
        return self.l1_hits / total if total else 0.0
