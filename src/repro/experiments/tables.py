"""Table 3: parameter sensitivity of ESTEEM (experiments E7-E8).

Each row of Table 3 changes exactly one parameter from the defaults
(Section 7: alpha=0.97, A_min=3, R_s=64, 10 M-cycle intervals, 8 modules
single-core / 16 dual-core).  Interval-length rows scale relative to the
configured default (the paper's 5 M / 15 M cycles are 0.5x / 1.5x of its
10 M default), so they stay meaningful for scaled-down runs.

A row is ESTEEM averaged over the workloads under ``variant.apply(config)``:
``repro table 3`` runs one
:func:`~repro.experiments.parallel.resilient_sweep` per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.config import SimConfig

__all__ = ["SENSITIVITY_VARIANTS", "SensitivityVariant"]


@dataclass(frozen=True)
class SensitivityVariant:
    """One Table 3 row: a label and a config transformation."""

    label: str
    apply: Callable[[SimConfig], SimConfig]


def _esteem(label: str, **overrides) -> SensitivityVariant:
    return SensitivityVariant(label, lambda cfg: cfg.with_esteem(**overrides))


def _interval_scale(label: str, factor: float) -> SensitivityVariant:
    def apply(cfg: SimConfig) -> SimConfig:
        new = int(cfg.esteem.interval_cycles * factor)
        return cfg.with_esteem(interval_cycles=new)

    return SensitivityVariant(label, apply)


def _assoc(label: str, ways: int) -> SensitivityVariant:
    return SensitivityVariant(label, lambda cfg: cfg.with_l2(associativity=ways))


def _size(label: str, mb: int) -> SensitivityVariant:
    return SensitivityVariant(
        label, lambda cfg: cfg.with_l2(size_bytes=mb * 1024 * 1024)
    )


def _default() -> SensitivityVariant:
    return SensitivityVariant("default", lambda cfg: cfg)


#: Table 3 rows, keyed by system ("single" / "dual"), in paper order.
SENSITIVITY_VARIANTS: dict[str, tuple[SensitivityVariant, ...]] = {
    "single": (
        _default(),
        _esteem("A_min=2", a_min=2),
        _esteem("A_min=4", a_min=4),
        _esteem("alpha=0.95", alpha=0.95),
        _esteem("alpha=0.99", alpha=0.99),
        _esteem("2 modules", num_modules=2),
        _esteem("4 modules", num_modules=4),
        _esteem("16 modules", num_modules=16),
        _esteem("32 modules", num_modules=32),
        _interval_scale("0.5x interval (5M)", 0.5),
        _interval_scale("1.5x interval (15M)", 1.5),
        _esteem("Rs=32", sampling_ratio=32),
        _esteem("Rs=128", sampling_ratio=128),
        _assoc("8-way L2", 8),
        _assoc("32-way L2", 32),
        _size("2MB L2", 2),
        _size("8MB L2", 8),
    ),
    "dual": (
        _default(),
        _esteem("A_min=2", a_min=2),
        _esteem("A_min=4", a_min=4),
        _esteem("alpha=0.95", alpha=0.95),
        _esteem("alpha=0.99", alpha=0.99),
        _esteem("4 modules", num_modules=4),
        _esteem("8 modules", num_modules=8),
        _esteem("32 modules", num_modules=32),
        _esteem("64 modules", num_modules=64),
        _interval_scale("0.5x interval (5M)", 0.5),
        _interval_scale("1.5x interval (15M)", 1.5),
        _esteem("Rs=32", sampling_ratio=32),
        _esteem("Rs=128", sampling_ratio=128),
        _assoc("8-way L2", 8),
        _assoc("32-way L2", 32),
        _size("4MB L2", 4),
        _size("16MB L2", 16),
    ),
}
