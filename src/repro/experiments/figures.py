"""Figure 2's series builder (experiment E1 in DESIGN.md): the
per-module active-way timeline of ESTEEM on h264ref.

Figures 3-6 (per-workload ESTEEM and RPV bars) are one sweep each:
``repro figure N`` runs
:func:`~repro.experiments.parallel.resilient_sweep` over
``("esteem", "rpv")``, and the benchmarks run the sequential
:meth:`~repro.experiments.runner.Runner.compare_many`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import Runner
from repro.timing.result import SystemResult

__all__ = ["TimelinePoint", "fig2_reconfiguration_timeline"]


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
