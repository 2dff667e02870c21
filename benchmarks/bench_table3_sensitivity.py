"""E7/E8 / Table 3: ESTEEM parameter-sensitivity sweep.

Regenerates every row of Table 3 for the single- and dual-core systems:
A_min, alpha, module count, interval length, ATD sampling ratio, L2
associativity, and L2 capacity, each varied one at a time from the
defaults.  Reports % energy saving, relative performance (WS), RPKI
decrease, MPKI increase and active ratio -- the paper's five columns.
"""

from __future__ import annotations

from conftest import dual_workloads, emit, scaled_config, single_workloads, strict_checks

from repro.experiments.report import format_table
from repro.experiments.runner import Runner, aggregate
from repro.experiments.tables import SENSITIVITY_VARIANTS

#: Paper's Table 3 rows (energy %, WS, dRPKI, dMPKI, active %) for the
#: report's side-by-side comparison.
PAPER_SINGLE = {
    "default": (25.82, 1.09, 467.4, 0.31, 44.10),
    "A_min=2": (25.46, 1.08, 482.4, 0.36, 41.60),
    "A_min=4": (25.76, 1.09, 449.1, 0.26, 47.00),
    "alpha=0.95": (24.95, 1.08, 473.9, 0.37, 42.70),
    "alpha=0.99": (26.56, 1.09, 458.2, 0.24, 46.10),
    "2 modules": (24.52, 1.08, 458.5, 0.34, 44.93),
    "4 modules": (25.96, 1.09, 457.7, 0.27, 45.20),
    "16 modules": (24.87, 1.09, 478.2, 0.37, 42.40),
    "32 modules": (19.41, 1.06, 491.0, 0.62, 38.97),
    "0.5x interval (5M)": (24.07, 1.09, 491.4, 0.43, 40.40),
    "1.5x interval (15M)": (25.82, 1.09, 456.5, 0.27, 46.00),
    "Rs=32": (25.79, 1.09, 458.9, 0.28, 45.80),
    "Rs=128": (24.30, 1.08, 477.7, 0.38, 42.20),
    "8-way L2": (23.68, 1.08, 397.9, 0.20, 55.94),
    "32-way L2": (24.39, 1.08, 499.3, 0.49, 38.27),
    "2MB L2": (10.18, 1.02, 204.4, 0.38, 48.00),
    "8MB L2": (49.42, 1.29, 1257.3, 0.37, 41.70),
}
PAPER_DUAL = {
    "default": (32.63, 1.22, 511.9, 0.37, 50.20),
    "A_min=2": (32.04, 1.22, 525.0, 0.47, 48.50),
    "A_min=4": (32.44, 1.22, 495.1, 0.31, 52.40),
    "alpha=0.95": (32.01, 1.23, 524.5, 0.43, 48.10),
    "alpha=0.99": (32.90, 1.22, 490.9, 0.29, 53.50),
    "4 modules": (31.22, 1.19, 482.9, 0.35, 51.40),
    "8 modules": (32.15, 1.21, 497.1, 0.35, 51.30),
    "32 modules": (32.13, 1.23, 526.1, 0.42, 47.90),
    "64 modules": (28.75, 1.21, 546.2, 0.59, 43.69),
    "0.5x interval (5M)": (32.41, 1.23, 543.4, 0.49, 46.60),
    "1.5x interval (15M)": (32.16, 1.21, 493.5, 0.33, 52.30),
    "Rs=32": (32.69, 1.22, 500.5, 0.35, 51.90),
    "Rs=128": (32.13, 1.23, 526.2, 0.43, 47.90),
    "8-way L2": (30.00, 1.19, 424.7, 0.25, 60.73),
    "32-way L2": (31.91, 1.23, 541.8, 0.56, 45.70),
    "4MB L2": (8.04, 1.06, 181.9, 0.45, 55.70),
    "16MB L2": (66.25, 2.11, 2438.0, 0.68, 43.70),
}

HEADERS = [
    "row", "sav%", "paper", "WS", "paper", "dRPKI", "paper",
    "dMPKI", "paper", "act%", "paper",
]


def _sweep(system: str, num_cores: int, workloads: list[str]) -> list[list]:
    base = scaled_config(num_cores=num_cores)
    paper = PAPER_SINGLE if system == "single" else PAPER_DUAL
    rows = []
    for variant in SENSITIVITY_VARIANTS[system]:
        runner = Runner(variant.apply(base))
        agg = aggregate(runner.compare_many(workloads, "esteem"))
        p = paper[variant.label]
        rows.append(
            [
                variant.label,
                agg.energy_saving_pct, p[0],
                agg.weighted_speedup, p[1],
                agg.rpki_decrease, p[2],
                agg.mpki_increase, p[3],
                agg.active_ratio_pct, p[4],
            ]
        )
    return rows


def bench_table3_single_core(run_once):
    rows = run_once(lambda: _sweep("single", 1, single_workloads()))
    emit(
        "table3_sensitivity_single",
        format_table(HEADERS, rows, title="Table 3 (single-core): measured vs paper"),
    )
    by = {r[0]: r for r in rows}
    # Directional shape checks straight from Section 7.4.
    assert by["2MB L2"][1] < by["default"][1] < by["8MB L2"][1]
    assert by["8MB L2"][3] > by["default"][3]  # big cache, big speedup
    assert by["A_min=2"][9] < by["A_min=4"][9]  # active ratio ordering
    if strict_checks():
        assert by["alpha=0.95"][9] < by["alpha=0.99"][9]
    assert by["8-way L2"][9] > by["default"][9]  # A_min=3 of 8 keeps more on


def bench_table3_dual_core(run_once):
    rows = run_once(lambda: _sweep("dual", 2, dual_workloads()))
    emit(
        "table3_sensitivity_dual",
        format_table(HEADERS, rows, title="Table 3 (dual-core): measured vs paper"),
    )
    by = {r[0]: r for r in rows}
    assert by["4MB L2"][1] < by["default"][1] < by["16MB L2"][1]
    assert by["16MB L2"][3] > 1.3  # paper: 2.11x at 16 MB dual-core
    assert by["A_min=2"][9] < by["A_min=4"][9]
