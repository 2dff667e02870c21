"""Central configuration objects for the ESTEEM reproduction.

The defaults mirror the experimental platform of the paper (Section 6.1):

* 2 GHz cores, 64-byte cache lines.
* Private 32 KB / 4-way / 2-cycle L1 caches, folded into the LLC-mode
  traces (post-L1 access streams) and each workload's base CPI.
* A shared 16-way / 12-cycle eDRAM L2 (4 MB for one core, 8 MB for two),
  organised in 4 banks, each able to refresh one line per cycle.
* 220-cycle main memory with a bandwidth-limited queue (10 GB/s single-core,
  15 GB/s dual-core).
* 50 us retention period at the 60 C operating point (40 us at 105 C).

Because a pure-Python simulator cannot retire 400 M instructions per
workload, :meth:`SimConfig.scaled` returns a configuration whose *ratios*
(interval : retention, cache capacity : working set) follow the paper while
trace lengths stay laptop-sized.  :meth:`SimConfig.paper_scale` returns the
full-scale parameters for reference.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any

__all__ = [
    "CacheGeometry",
    "EsteemConfig",
    "MemoryConfig",
    "RefreshConfig",
    "SimConfig",
    "DEFAULT_FREQUENCY_HZ",
    "LINE_SIZE_BYTES",
    "TAG_BITS",
]

#: Core clock frequency used throughout the paper (2 GHz).
DEFAULT_FREQUENCY_HZ: float = 2.0e9

#: Cache line (block) size, B in the paper's notation: 64 bytes = 512 bits.
LINE_SIZE_BYTES: int = 64

#: Tag size G in bits (Section 3, Notations).
TAG_BITS: int = 40


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache.

    Attributes
    ----------
    size_bytes:
        Total data capacity.
    associativity:
        Number of ways, ``A`` in the paper.  Lines are
        :data:`LINE_SIZE_BYTES` long.
    latency_cycles:
        Access latency in core cycles.
    """

    size_bytes: int
    associativity: int
    latency_cycles: int = 12

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.associativity > 0, "associativity must be positive")
        lines = self.size_bytes // LINE_SIZE_BYTES
        _require(
            lines * LINE_SIZE_BYTES == self.size_bytes,
            "cache size must be a multiple of the line size",
        )
        _require(
            lines % self.associativity == 0,
            "line count must be a multiple of the associativity",
        )
        _require(_is_pow2(self.num_sets), "number of sets must be a power of two")

    @property
    def num_lines(self) -> int:
        """Total number of cache lines (S * A)."""
        return self.size_bytes // LINE_SIZE_BYTES

    @property
    def num_sets(self) -> int:
        """Number of sets, ``S`` in the paper."""
        return self.num_lines // self.associativity

    @property
    def set_index_bits(self) -> int:
        return self.num_sets.bit_length() - 1

    def set_index(self, line_addr: int) -> int:
        """Map a line address to its set index (low-order interleaving)."""
        return line_addr & (self.num_sets - 1)


@dataclass(frozen=True)
class RefreshConfig:
    """eDRAM refresh machinery parameters (Section 6.1).

    Attributes
    ----------
    retention_cycles:
        Retention period expressed in core cycles.  50 us at 2 GHz is
        100 000 cycles; 40 us is 80 000 cycles.
    num_banks:
        The L2 has a 4-bank structure; each bank refreshes independently.
    lines_per_refresh_burst:
        Refresh requests are issued in bursts of this many back-to-back
        single-cycle line refreshes (a DRAM row worth of lines).  The burst
        length controls how much an in-flight refresh delays a colliding
        demand access.
    rpv_phases:
        Number of phases used by the Refrint polyphase-valid policy
        (4 in the paper, Section 6.2).  A power of two: RPV finds a
        line's phase with a bit mask.
    """

    retention_cycles: int = 100_000
    num_banks: int = 4
    lines_per_refresh_burst: int = 384
    rpv_phases: int = 4
    #: ECC-extended refresh (paper refs [39, 45]): refresh every k-th
    #: retention period, tolerating correctable bit errors.  Used by the
    #: "ecc" technique only.
    ecc_extension_factor: int = 4

    def __post_init__(self) -> None:
        _require(self.retention_cycles > 0, "retention period must be positive")
        _require(self.num_banks > 0, "bank count must be positive")
        _require(self.lines_per_refresh_burst > 0, "burst length must be positive")
        _require(self.rpv_phases > 0, "RPV phase count must be positive")
        _require(
            _is_pow2(self.rpv_phases),
            f"RPV phase count must be a power of two, got {self.rpv_phases}",
        )
        _require(
            self.retention_cycles % self.rpv_phases == 0,
            "retention period must divide evenly into RPV phases",
        )
        _require(self.ecc_extension_factor >= 1, "ECC extension must be >= 1")

    @property
    def phase_cycles(self) -> int:
        """Length of one RPV phase window in cycles."""
        return self.retention_cycles // self.rpv_phases

    @classmethod
    def from_microseconds(cls, retention_us: float, **kwargs: Any) -> "RefreshConfig":
        """Build a refresh config from a retention period in microseconds.

        The cycle count (at :data:`DEFAULT_FREQUENCY_HZ`) is rounded to a
        multiple of the phase count so the polyphase windows divide it
        exactly.  A retention period that is not positive is refused, not
        rounded up to one cycle per phase.
        """
        _require(
            retention_us > 0,
            f"retention must be positive, got {retention_us} us",
        )
        phases = kwargs.get("rpv_phases", cls.rpv_phases)
        cycles = int(round(retention_us * 1e-6 * DEFAULT_FREQUENCY_HZ))
        cycles = max(phases, round(cycles / phases) * phases)
        return cls(retention_cycles=cycles, **kwargs)


@dataclass(frozen=True)
class MemoryConfig:
    """Main memory latency / bandwidth model parameters (Section 6.1)."""

    latency_cycles: int = 220
    bandwidth_bytes_per_sec: float = 10.0e9

    def __post_init__(self) -> None:
        _require(self.latency_cycles >= 0, "memory latency must be non-negative")
        _require(self.bandwidth_bytes_per_sec > 0, "bandwidth must be positive")

    @property
    def service_cycles(self) -> float:
        """Cycles the memory channel is occupied per line transfer."""
        seconds = LINE_SIZE_BYTES / self.bandwidth_bytes_per_sec
        return seconds * DEFAULT_FREQUENCY_HZ


@dataclass(frozen=True)
class EsteemConfig:
    """Parameters of the ESTEEM controller (Sections 3-5, defaults from 7).

    Attributes
    ----------
    alpha:
        Hit-coverage threshold: enough ways stay on to cover at least
        ``alpha`` of the observed hits (0.97 by default).
    a_min:
        Minimum number of ways always kept on (3 by default; the paper never
        uses 1, which would make the LLC direct-mapped).
    num_modules:
        ``M``: the cache sets are split into this many contiguous modules,
        each with an independent active-way count.
    sampling_ratio:
        ``R_s``: one set in every ``R_s`` is a leader (profiling) set.
    interval_cycles:
        The energy-saving algorithm runs once per interval (10 M cycles at
        paper scale).
    max_way_delta:
        Optional reconfiguration damping (the future-work extension of
        Section 7.2): per interval, a module may turn *off* at most this
        many ways (shrinking flushes lines; growing is free and stays
        uncapped).  ``0`` disables the cap.
    nonlru_guard:
        Whether the non-LRU detection of Algorithm 1 (lines 4-13) is active.
        Disabling it is used by the ablation bench only.

    Whether gated ways flush (the paper's scheme) or keep their data in a
    drowsy state is the technique's choice: ``esteem`` or ``esteem-drowsy``.
    """

    alpha: float = 0.97
    a_min: int = 3
    num_modules: int = 8
    sampling_ratio: int = 64
    interval_cycles: int = 10_000_000
    max_way_delta: int = 0
    nonlru_guard: bool = True

    def __post_init__(self) -> None:
        _require(0.0 < self.alpha <= 1.0, "alpha must be in (0, 1]")
        _require(self.a_min >= 1, "a_min must be at least 1")
        _require(self.num_modules >= 1, "module count must be at least 1")
        _require(self.sampling_ratio >= 1, "sampling ratio must be at least 1")
        _require(self.interval_cycles > 0, "interval length must be positive")
        _require(self.max_way_delta >= 0, "max_way_delta must be non-negative")

    def validate_for_cache(self, geometry: CacheGeometry) -> None:
        """Check that this controller config is compatible with ``geometry``.

        Every module needs at least one leader set so that its hit histogram
        is populated; the module count must divide the set count evenly.
        """
        sets = geometry.num_sets
        _require(
            sets % self.num_modules == 0,
            f"set count {sets} must be a multiple of module count "
            f"{self.num_modules}",
        )
        sets_per_module = sets // self.num_modules
        _require(
            sets_per_module >= self.sampling_ratio,
            f"each module needs at least one leader set: sets/module = "
            f"{sets_per_module} < sampling ratio {self.sampling_ratio}",
        )
        _require(
            self.a_min <= geometry.associativity,
            "a_min cannot exceed the cache associativity",
        )


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulated-system configuration.

    Combines the cache hierarchy, refresh machinery, main memory, and the
    ESTEEM controller parameters, plus trace-scale knobs.  Cores run at
    :data:`DEFAULT_FREQUENCY_HZ`; each core's base CPI comes from its trace.
    """

    num_cores: int = 1
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(
            size_bytes=4 * 1024 * 1024, associativity=16, latency_cycles=12
        )
    )
    refresh: RefreshConfig = field(default_factory=RefreshConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    esteem: EsteemConfig = field(default_factory=EsteemConfig)
    #: Instructions simulated per core (trace scale).
    instructions_per_core: int = 400_000_000

    def __post_init__(self) -> None:
        _require(self.num_cores in (1, 2), "the paper evaluates 1 and 2 cores")
        _require(self.instructions_per_core > 0, "instruction budget required")
        self.esteem.validate_for_cache(self.l2)

    # ------------------------------------------------------------------
    # Factory methods
    # ------------------------------------------------------------------

    @classmethod
    def paper_scale(cls, num_cores: int = 1, retention_us: float = 50.0) -> "SimConfig":
        """The exact configuration of Section 6.1 / Section 7.

        Single-core: 4 MB L2, 8 modules, 10 GB/s memory.
        Dual-core:   8 MB L2, 16 modules, 15 GB/s memory.
        """
        if num_cores == 1:
            l2_bytes = 4 * 1024 * 1024
            modules = 8
            bandwidth = 10.0e9
        else:
            l2_bytes = 8 * 1024 * 1024
            modules = 16
            bandwidth = 15.0e9
        return cls(
            num_cores=num_cores,
            l2=CacheGeometry(size_bytes=l2_bytes, associativity=16, latency_cycles=12),
            refresh=RefreshConfig.from_microseconds(retention_us),
            memory=MemoryConfig(bandwidth_bytes_per_sec=bandwidth),
            esteem=EsteemConfig(num_modules=modules, interval_cycles=10_000_000),
            instructions_per_core=400_000_000,
        )

    @classmethod
    def scaled(
        cls,
        num_cores: int = 1,
        retention_us: float = 50.0,
        instructions_per_core: int = 12_000_000,
        interval_cycles: int = 800_000,
        sampling_ratio: int = 16,
        **esteem_overrides: Any,
    ) -> "SimConfig":
        """A laptop-scale configuration preserving the paper's ratios.

        The cache geometry, retention period, and energy constants are kept
        at full scale (they set the energy magnitudes); the instruction
        budget and the reconfiguration interval shrink so that tens of
        intervals and hundreds of retention periods still fit in a run, and
        the ATD sampling ratio densifies from 64 to 16 so leader-set
        histograms stay statistically meaningful at the shorter interval
        (the leader:interval sample ratio roughly matches the paper's).
        """
        cfg = cls.paper_scale(num_cores=num_cores, retention_us=retention_us)
        esteem = replace(
            cfg.esteem,
            interval_cycles=interval_cycles,
            sampling_ratio=sampling_ratio,
            **esteem_overrides,
        )
        return replace(
            cfg, esteem=esteem, instructions_per_core=instructions_per_core
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def with_esteem(self, **overrides: Any) -> "SimConfig":
        """Return a copy with ESTEEM parameters replaced."""
        return replace(self, esteem=replace(self.esteem, **overrides))

    def with_l2(self, **overrides: Any) -> "SimConfig":
        """Return a copy with L2 geometry fields replaced."""
        return replace(self, l2=replace(self.l2, **overrides))

    def with_retention_us(self, retention_us: float) -> "SimConfig":
        """Return a copy with a different retention period, every other
        refresh field kept."""
        cycles = RefreshConfig.from_microseconds(
            retention_us, rpv_phases=self.refresh.rpv_phases
        ).retention_cycles
        return replace(
            self, refresh=replace(self.refresh, retention_cycles=cycles)
        )

    def describe(self) -> dict[str, Any]:
        """A flat dictionary of the headline parameters (for reports)."""
        return {
            "cores": self.num_cores,
            "l2_mb": self.l2.size_bytes / (1024 * 1024),
            "l2_ways": self.l2.associativity,
            "l2_sets": self.l2.num_sets,
            "retention_cycles": self.refresh.retention_cycles,
            "retention_us": self.refresh.retention_cycles
            / DEFAULT_FREQUENCY_HZ
            * 1e6,
            "interval_cycles": self.esteem.interval_cycles,
            "alpha": self.esteem.alpha,
            "a_min": self.esteem.a_min,
            "modules": self.esteem.num_modules,
            "sampling_ratio": self.esteem.sampling_ratio,
            "instructions_per_core": self.instructions_per_core,
        }


def config_fields(obj: Any) -> dict[str, Any]:
    """Recursively flatten a dataclass config into ``dotted.name -> value``."""
    out: dict[str, Any] = {}

    def walk(prefix: str, value: Any) -> None:
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                walk(
                    f"{prefix}.{f.name}" if prefix else f.name,
                    getattr(value, f.name),
                )
        else:
            out[prefix] = value

    walk("", obj)
    return out
