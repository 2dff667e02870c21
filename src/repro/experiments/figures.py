"""Figure-series builders (experiments E1-E5 in DESIGN.md).

* Figure 2: the per-module active-way timeline of ESTEEM on h264ref.
* Figures 3-6: per-workload bars -- % energy saving, weighted speedup and
  RPKI decrease for ESTEEM and RPV -- at 50 us (Figs. 3-4) and 40 us
  (Figs. 5-6) retention, single- and dual-core.

The builders return plain data structures; the benchmark harness prints
them as the rows/series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.result_cache import probe_unit
from repro.experiments.runner import RunComparison, Runner
from repro.timing.system import SystemResult

__all__ = [
    "FigureRow",
    "TimelinePoint",
    "fig2_reconfiguration_timeline",
    "per_workload_comparison",
]


@dataclass(frozen=True)
class TimelinePoint:
    """One interval of the Figure 2 reconfiguration timeline."""

    interval: int
    cycle: int
    active_ratio_pct: float
    ways_per_module: tuple[int, ...]


def fig2_reconfiguration_timeline(
    runner: Runner, workload: str = "h264ref"
) -> tuple[SystemResult, list[TimelinePoint]]:
    """Figure 2: how ESTEEM reconfigures ``workload`` over time.

    Returns the raw run result plus one point per interval.  The paper's
    observation to verify: the active ratio changes across intervals *and*
    different modules hold different way counts within one interval.
    """
    result = runner.run(workload, "esteem")
    points = [
        TimelinePoint(
            interval=d.interval_index,
            cycle=d.cycle,
            active_ratio_pct=d.active_fraction * 100.0,
            ways_per_module=d.n_active_way,
        )
        for d in result.timeline
    ]
    return result, points


@dataclass(frozen=True)
class FigureRow:
    """One workload's bar-group in Figures 3-6."""

    workload: str
    esteem_energy_saving_pct: float
    rpv_energy_saving_pct: float
    esteem_weighted_speedup: float
    rpv_weighted_speedup: float
    esteem_rpki_decrease: float
    rpv_rpki_decrease: float
    esteem_mpki_increase: float
    esteem_active_ratio_pct: float


def per_workload_comparison(
    runner: Runner, workloads: list[str], cache=None
) -> tuple[list[FigureRow], dict[str, list[RunComparison]]]:
    """Run ESTEEM and RPV on every workload; build figure rows.

    Returns the rows plus the raw comparisons keyed by technique (for
    aggregation).  With ``cache`` set (a
    :class:`~repro.experiments.result_cache.ResultCache`), units whose
    content fingerprint is already cached are served bit-for-bit without
    simulating, and freshly computed units are stored back -- so
    regenerating a figure after an unrelated change skips straight to
    rendering.
    """
    techniques = ("esteem", "rpv")
    rows: list[FigureRow] = []
    raw: dict[str, list[RunComparison]] = {"esteem": [], "rpv": []}
    for workload in workloads:
        fingerprint, hit = probe_unit(
            cache, runner.config, workload, techniques, runner.seed,
            runner.fault_plan,
        )
        if hit is not None:
            esteem, rpv = hit
        else:
            esteem = runner.compare(workload, "esteem")
            rpv = runner.compare(workload, "rpv")
            if cache is not None and fingerprint:
                cache.put(fingerprint, [esteem, rpv])
        raw["esteem"].append(esteem)
        raw["rpv"].append(rpv)
        rows.append(
            FigureRow(
                workload=workload,
                esteem_energy_saving_pct=esteem.energy_saving_pct,
                rpv_energy_saving_pct=rpv.energy_saving_pct,
                esteem_weighted_speedup=esteem.weighted_speedup,
                rpv_weighted_speedup=rpv.weighted_speedup,
                esteem_rpki_decrease=esteem.rpki_decrease,
                rpv_rpki_decrease=rpv.rpki_decrease,
                esteem_mpki_increase=esteem.mpki_increase,
                esteem_active_ratio_pct=esteem.active_ratio_pct,
            )
        )
    return rows, raw
