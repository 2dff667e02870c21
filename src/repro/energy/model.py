"""The paper's energy equations (Section 6.3, Eqs. 2-8; Section 5, Eq. 1).

Energy is accounted per interval and summed:

.. math::

    E       &= E_{L2} + E_{MM} + E_{Algo}              \\quad (2) \\\\
    E_{L2}  &= LE_{L2} + DE_{L2} + RE_{L2}             \\quad (3) \\\\
    LE_{L2} &= P^{leak}_{L2} \\cdot F_A \\cdot T       \\quad (4) \\\\
    DE_{L2} &= E^{dyn}_{L2} (2 M_{L2} + H_{L2})        \\quad (5) \\\\
    RE_{L2} &= N_R \\cdot E^{dyn}_{L2}                 \\quad (6) \\\\
    E_{MM}  &= P^{leak}_{MM} T + E^{dyn}_{MM} A_{MM}   \\quad (7) \\\\
    E_{Algo}&= E_\\chi \\cdot N_L                      \\quad (8)

For the baseline and RPV, ``F_A = 1`` and ``E_Algo = 0`` (Section 6.3).
An L2 miss costs twice the dynamic energy of a hit (Eq. 5), refreshing a
line costs the same energy as accessing it (Eq. 6), and L2 leakage scales
with the active fraction of the cache (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.config import LINE_SIZE_BYTES, TAG_BITS
from repro.energy.params import EnergyParams
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "EnergyAccumulator",
    "EnergyBreakdown",
    "IntervalEnergyInputs",
    "counter_overhead_percent",
]


@dataclass(frozen=True)
class IntervalEnergyInputs:
    """Everything Eqs. (2)-(8) need for one interval."""

    #: T: wall-clock length of the interval in seconds.
    seconds: float
    #: H_L2: L2 hits in the interval.
    l2_hits: int
    #: M_L2: L2 misses in the interval.
    l2_misses: int
    #: N_R: cache lines refreshed in the interval.
    refreshes: int
    #: A_MM: main-memory accesses (fetches + writebacks).
    mem_accesses: int
    #: F_A: active fraction of the cache during the interval.
    active_fraction: float
    #: N_L: cache blocks that underwent a power-state transition.
    transitions: int = 0

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("interval length must be non-negative")
        if not 0.0 <= self.active_fraction <= 1.0:
            raise ValueError("active fraction must be in [0, 1]")
        for name in ("l2_hits", "l2_misses", "refreshes", "mem_accesses", "transitions"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class EnergyBreakdown:
    """Joules per component; additive across intervals."""

    l2_leakage_j: float = 0.0
    l2_dynamic_j: float = 0.0
    l2_refresh_j: float = 0.0
    mem_leakage_j: float = 0.0
    mem_dynamic_j: float = 0.0
    algo_j: float = 0.0

    @property
    def l2_total_j(self) -> float:
        """E_L2 (Eq. 3)."""
        return self.l2_leakage_j + self.l2_dynamic_j + self.l2_refresh_j

    @property
    def mem_total_j(self) -> float:
        """E_MM (Eq. 7)."""
        return self.mem_leakage_j + self.mem_dynamic_j

    @property
    def total_j(self) -> float:
        """E (Eq. 2)."""
        return self.l2_total_j + self.mem_total_j + self.algo_j

    def add(self, other: "EnergyBreakdown") -> None:
        """Accumulate another breakdown into this one, component-wise."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, float]:
        """Component values plus derived totals, keyed by name."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["l2_total_j"] = self.l2_total_j
        out["mem_total_j"] = self.mem_total_j
        out["total_j"] = self.total_j
        return out


class EnergyAccumulator:
    """Applies Eqs. (2)-(8) interval by interval.

    When a :class:`~repro.obs.metrics.MetricsRegistry` is injected,
    per-interval joules and inputs are recorded under the
    ``energy.*`` metric names; with no registry the accumulator pays a
    single ``is not None`` test per interval.
    """

    def __init__(
        self, params: EnergyParams, registry: MetricsRegistry | None = None
    ) -> None:
        self.params = params
        self.totals = EnergyBreakdown()
        self.intervals = 0
        self._registry = registry

    def add_interval(self, inputs: IntervalEnergyInputs) -> EnergyBreakdown:
        """Account one interval; returns that interval's breakdown."""
        p = self.params
        delta = EnergyBreakdown(
            l2_leakage_j=p.l2_leakage_w * inputs.active_fraction * inputs.seconds,
            l2_dynamic_j=p.l2_dynamic_j * (2 * inputs.l2_misses + inputs.l2_hits),
            l2_refresh_j=p.l2_dynamic_j * inputs.refreshes,
            mem_leakage_j=p.mem_leakage_w * inputs.seconds,
            mem_dynamic_j=p.mem_dynamic_j * inputs.mem_accesses,
            algo_j=p.transition_j * inputs.transitions,
        )
        self.totals.add(delta)
        self.intervals += 1
        reg = self._registry
        if reg is not None:
            reg.counter("energy.intervals").inc()
            for name, joules in delta.as_dict().items():
                reg.counter(f"energy.{name}").inc(joules)
            reg.histogram(
                "energy.interval_refreshes",
                help="N_R per interval",
            ).observe(inputs.refreshes)
            reg.gauge("energy.active_fraction").set(inputs.active_fraction)
        return delta


def counter_overhead_percent(
    num_sets: int,
    associativity: int,
    num_modules: int,
    counter_bits: int = 40,
    block_bits: int = LINE_SIZE_BYTES * 8,
    tag_bits: int = TAG_BITS,
) -> float:
    """Storage overhead of ESTEEM's counters as % of L2 capacity (Eq. 1).

    ``nL2Hit`` and ``Accumulated_L2Hit`` need ``2 * M * A`` counters and
    ``nActiveWay`` needs ``M`` more; each counter is 40 bits.  For the
    paper's 4 MB / 16-way / 16-module cache this evaluates to ~0.06%.

    >>> round(counter_overhead_percent(4096, 16, 16), 2)
    0.06
    """
    if min(num_sets, associativity, num_modules, counter_bits) <= 0:
        raise ValueError("all Eq. 1 inputs must be positive")
    numerator = (2 * associativity + 1) * num_modules * counter_bits
    denominator = num_sets * associativity * (block_bits + tag_bits)
    return numerator / denominator * 100.0
