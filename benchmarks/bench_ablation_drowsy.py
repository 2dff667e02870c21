"""Ablation: turn-off vs drowsy (data-retaining) way gating.

The paper's ESTEEM discards gated ways' contents; its citation [32]
(Morishita et al.) describes a power-down *data retention* mode that keeps
state at reduced leakage.  We implemented that alternative as the
``esteem-drowsy`` technique: no flush on shrink, hits in drowsy ways pay a
wake-up penalty, drowsy lines leak a fraction and refresh at a stretched
retention period.

The trade-off to measure: drowsy eliminates most of the reconfiguration
MPKI cost (gated data is still there when the working set returns) in
exchange for residual leakage + refresh in the gated portion.
"""

from __future__ import annotations

from conftest import emit, scaled_config, single_workloads, strict_checks

from repro.experiments.report import format_table
from repro.experiments.runner import Runner, aggregate


def bench_ablation_drowsy(run_once):
    workloads = single_workloads()[:8]
    runner = Runner(scaled_config(num_cores=1))

    def build():
        off = runner.compare_many(workloads, "esteem")
        drowsy = runner.compare_many(workloads, "esteem-drowsy")
        rows = []
        for o, d in zip(off, drowsy):
            rows.append(
                [
                    o.workload,
                    o.energy_saving_pct, d.energy_saving_pct,
                    o.weighted_speedup, d.weighted_speedup,
                    o.mpki_increase, d.mpki_increase,
                    d.result.l2_hits and _drowsy_hits(runner, o.workload),
                ]
            )
        ao, ad = aggregate(off), aggregate(drowsy)
        rows.append(
            ["AVERAGE", ao.energy_saving_pct, ad.energy_saving_pct,
             ao.weighted_speedup, ad.weighted_speedup,
             ao.mpki_increase, ad.mpki_increase, ""]
        )
        return rows

    rows = run_once(build)
    emit(
        "ablation_drowsy",
        format_table(
            ["workload", "off sav%", "drowsy sav%", "off WS", "drowsy WS",
             "off dMPKI", "drowsy dMPKI", "drowsy hits"],
            rows,
            float_digits=3,
            title="Ablation: turn-off vs drowsy way gating",
        )
        + "\nreading: drowsy gating retains gated data (wake-up hits instead "
        "of refetches), trading\nresidual gated-way leakage/refresh for a "
        "much smaller off-chip traffic penalty.",
    )

    avg = rows[-1]
    # The headline trade: drowsy adds far less MPKI than turn-off.
    assert avg[6] < 0.6 * avg[5], "drowsy must cut the MPKI penalty sharply"
    if strict_checks():
        # And it stays competitive on energy (within a few points).
        assert avg[2] > avg[1] - 6.0


def _drowsy_hits(runner: Runner, workload: str) -> int:
    """Count drowsy-way hits for the report (re-runs once, cached traces)."""
    from repro.timing.system import System

    sysm = System(runner.config, runner.traces_for(workload), "esteem-drowsy")
    sysm.run()
    return sysm.l2.stats.drowsy_hits
