"""Technology-comparison evaluation (measuring the paper's Section 1 case).

:func:`evaluate_technology` runs one workload on one LLC technology:

* **eDRAM** uses the requested refresh technique (baseline / RPV / ESTEEM
  / ...) exactly as in the main experiments.
* **SRAM / STT-RAM / ReRAM** need no refresh; they run with the no-refresh
  engine, scaled leakage, per-write energy surcharges, and asymmetric
  write latency.
* NVM technologies additionally track per-line write counts and report a
  wear-out lifetime estimate (endurance / hottest line's write rate) --
  the "limited write endurance ... critical bottleneck" of Section 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_FREQUENCY_HZ, SimConfig
from repro.energy.params import EnergyParams
from repro.tech.params import TechnologyParams
from repro.timing.system import System, SystemResult
from repro.workloads.trace import Trace

__all__ = ["TechResult", "TechSystem", "evaluate_technology"]

_SECONDS_PER_YEAR = 365.25 * 24 * 3600


@dataclass(frozen=True)
class TechResult:
    """Outcome of one workload on one LLC technology."""

    technology: str
    technique: str
    result: SystemResult
    #: Total memory-subsystem energy including the write surcharge.
    total_energy_j: float
    #: Extra dynamic energy charged for the technology's expensive writes.
    write_surcharge_j: float
    #: L2 write accesses observed.
    l2_writes: int
    #: Estimated years to wear out the hottest line; None = unlimited.
    lifetime_years: float | None

    @property
    def ipc(self) -> float:
        """First core's measured-window IPC."""
        return self.result.ipcs[0]

    @property
    def refresh_share(self) -> float:
        """Fraction of L2 energy spent refreshing."""
        l2 = self.result.energy.l2_total_j
        return self.result.energy.l2_refresh_j / l2 if l2 else 0.0


class TechSystem(System):
    """A :class:`System` with technology-specific latency and energy.

    The L2 read latency comes from the technology; a slower write pays
    the difference as :attr:`System.write_penalty`, which both simulation
    loops add to write records, so technology runs take the fast loop.
    """

    def __init__(
        self,
        config: SimConfig,
        traces: list[Trace],
        technology: TechnologyParams,
        technique: str = "baseline",
    ) -> None:
        if not technology.needs_refresh and technique not in (
            "no-refresh",
            "baseline",
        ):
            raise ValueError(
                f"{technology.name} does not refresh; technique {technique!r} "
                "is eDRAM-specific"
            )
        effective = technique if technology.needs_refresh else "no-refresh"
        config = config.with_l2(latency_cycles=technology.read_latency_cycles)
        super().__init__(config, traces, effective)
        self.technology = technology
        self.write_penalty = float(
            technology.write_latency_cycles - technology.read_latency_cycles
        )
        # Scale the calibrated eDRAM constants to this technology.
        base = EnergyParams.for_cache_size(config.l2.size_bytes)
        self.energy.params = EnergyParams(
            l2_dynamic_j=base.l2_dynamic_j * technology.read_energy_scale,
            l2_leakage_w=base.l2_leakage_w * technology.leakage_scale,
            mem_dynamic_j=base.mem_dynamic_j,
            mem_leakage_w=base.mem_leakage_w,
            transition_j=base.transition_j,
        )
        self._base_dynamic_j = base.l2_dynamic_j
        if technology.write_endurance is not None:
            self.l2.write_counts = np.zeros(self.l2.state.num_lines, dtype=np.int64)


def evaluate_technology(
    technology: TechnologyParams,
    config: SimConfig,
    traces: list[Trace],
    technique: str = "baseline",
) -> TechResult:
    """Run one workload on one technology and post-process the energy."""
    if technology.needs_refresh:
        config = config.with_retention_us(technology.retention_us)
    sysm = TechSystem(config, traces, technology, technique)
    # Always count writes so the surcharge is exact.
    if sysm.l2.write_counts is None:
        sysm.l2.write_counts = np.zeros(sysm.l2.state.num_lines, dtype=np.int64)
    result = sysm.run()

    writes = int(sysm.l2.write_counts.sum())
    surcharge = (
        writes
        * sysm._base_dynamic_j
        * (technology.write_energy_scale - technology.read_energy_scale)
    )
    total = result.energy.total_j + max(0.0, surcharge)

    lifetime = None
    if technology.write_endurance is not None:
        hottest = int(sysm.l2.write_counts.max())
        seconds = result.total_cycles / DEFAULT_FREQUENCY_HZ
        if hottest > 0 and seconds > 0:
            rate = hottest / seconds  # writes/s to the hottest line
            lifetime = technology.write_endurance / rate / _SECONDS_PER_YEAR

    return TechResult(
        technology=technology.name,
        technique=sysm.technique,
        result=result,
        total_energy_j=total,
        write_surcharge_j=max(0.0, surcharge),
        l2_writes=writes,
        lifetime_years=lifetime,
    )
