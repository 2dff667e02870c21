"""What a simulation run returns, and the names that identify the engine.

The value types of the timing model -- :class:`CoreResult` and
:class:`SystemResult` -- and the constants the CLI, the result cache and
the run manifest read (:data:`TECHNIQUES`, :data:`SIM_ENGINE_VERSION`).
None of it imports NumPy or the simulator, so a sweep served from the
result cache can decode its results without loading either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.algorithm import IntervalDecision
from repro.energy.model import EnergyBreakdown

__all__ = ["CoreResult", "SIM_ENGINE_VERSION", "SystemResult", "TECHNIQUES"]

#: Version of the simulation semantics, fingerprinted into the
#: content-addressed sweep result cache.  Bump on ANY change that can
#: alter a ``SystemResult`` for identical inputs (timing, energy,
#: refresh, replacement, fault injection, trace generation) so stale
#: cached sweep units can never masquerade as current results.  Purely
#: structural refactors that are bit-for-bit neutral may keep it.
SIM_ENGINE_VERSION = 4

#: Techniques the runner understands.
TECHNIQUES: tuple[str, ...] = (
    "baseline",
    "rpv",
    "rpd",
    "decay",
    "ecc",
    "selective-sets",
    "periodic-valid",
    "no-refresh",
    "esteem",
    "esteem-drowsy",
)


@dataclass(frozen=True)
class CoreResult:
    """Per-core outcome of a run."""

    core_id: int
    workload: str
    #: Instructions in one full trace pass (the measured window).
    first_pass_instructions: int
    #: Cycle at which the first trace pass completed.
    first_pass_cycles: float
    #: Instructions executed in total, including wrapped passes.
    total_instructions: int
    #: Trace passes completed (>= 1; > 1 for early finishers, Section 6.4).
    wraps: int

    @property
    def ipc(self) -> float:
        """IPC over the measured (first-pass) window."""
        if self.first_pass_cycles <= 0:
            return 0.0
        return self.first_pass_instructions / self.first_pass_cycles


@dataclass
class SystemResult:
    """Raw outcome of one simulation run."""

    technique: str
    workload: str
    cores: list[CoreResult]
    total_cycles: float
    total_instructions: int
    l2_hits: int
    l2_misses: int
    l2_writebacks: int
    refreshes: int
    mem_reads: int
    mem_writes: int
    energy: EnergyBreakdown
    mean_active_fraction: float
    intervals: int
    #: Interval-controller records: ESTEEM and selective-sets (empty for
    #: other techniques).
    timeline: list[IntervalDecision] = field(default_factory=list)
    transitions: int = 0
    flush_writebacks: int = 0
    #: Fault-injection outcome counts (all zero unless a
    #: :class:`~repro.faults.plan.FaultPlan` with hardware faults ran).
    faults_injected: int = 0
    fault_corrected: int = 0
    fault_invalidated_clean: int = 0
    fault_data_loss: int = 0

    # ------------------------------------------------------------------
    # Derived metrics (Section 6.4)
    # ------------------------------------------------------------------

    @property
    def ipcs(self) -> list[float]:
        return [c.ipc for c in self.cores]

    @property
    def mpki(self) -> float:
        """L2 misses per kilo-instruction (over all executed instructions)."""
        if self.total_instructions == 0:
            return 0.0
        return self.l2_misses / self.total_instructions * 1000.0

    @property
    def rpki(self) -> float:
        """Cache lines refreshed per kilo-instruction."""
        if self.total_instructions == 0:
            return 0.0
        return self.refreshes / self.total_instructions * 1000.0

    @property
    def l2_miss_rate(self) -> float:
        total = self.l2_hits + self.l2_misses
        return self.l2_misses / total if total else 0.0

    @property
    def mean_cpi(self) -> float:
        """System-level cycles per instruction (all cores pooled)."""
        if self.total_instructions == 0:
            return 0.0
        return self.total_cycles / self.total_instructions

    @property
    def total_energy_j(self) -> float:
        return self.energy.total_j
