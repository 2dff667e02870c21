"""Shared driver for the Figure 3-6 benches (per-workload bar groups)."""

from __future__ import annotations

from dataclasses import dataclass

from conftest import emit, scaled_config

from repro.experiments.report import format_table
from repro.experiments.runner import Runner, aggregate


@dataclass(frozen=True)
class PaperAverages:
    """The paper's reported averages for one figure (for the report)."""

    esteem_saving: float
    rpv_saving: float
    esteem_ws: float
    rpv_ws: float
    esteem_rpki: float
    rpv_rpki: float


def run_figure(
    run_once,
    name: str,
    title: str,
    num_cores: int,
    retention_us: float,
    workloads: list[str],
    paper: PaperAverages,
) -> None:
    """Run ESTEEM + RPV on every workload and emit the figure's series."""
    runner = Runner(scaled_config(num_cores=num_cores, retention_us=retention_us))

    raw = run_once(
        lambda: {t: runner.compare_many(workloads, t) for t in ("esteem", "rpv")}
    )

    table_rows = [
        [
            es.workload,
            es.energy_saving_pct,
            rpv.energy_saving_pct,
            es.weighted_speedup,
            rpv.weighted_speedup,
            es.rpki_decrease,
            rpv.rpki_decrease,
            es.mpki_increase,
            es.active_ratio_pct,
        ]
        for es, rpv in zip(raw["esteem"], raw["rpv"])
    ]
    es = aggregate(raw["esteem"])
    rpv = aggregate(raw["rpv"])
    table_rows.append(
        [
            "AVERAGE",
            es.energy_saving_pct,
            rpv.energy_saving_pct,
            es.weighted_speedup,
            rpv.weighted_speedup,
            es.rpki_decrease,
            rpv.rpki_decrease,
            es.mpki_increase,
            es.active_ratio_pct,
        ]
    )
    table = format_table(
        [
            "workload",
            "ES sav%",
            "RPV sav%",
            "ES WS",
            "RPV WS",
            "ES dRPKI",
            "RPV dRPKI",
            "ES dMPKI",
            "ES act%",
        ],
        table_rows,
        title=title,
    )
    comparison = (
        "\npaper averages:  "
        f"ESTEEM sav={paper.esteem_saving}% (measured {es.energy_saving_pct:.2f}%)  "
        f"RPV sav={paper.rpv_saving}% (measured {rpv.energy_saving_pct:.2f}%)\n"
        f"                 ESTEEM WS={paper.esteem_ws} (measured "
        f"{es.weighted_speedup:.3f})  RPV WS={paper.rpv_ws} (measured "
        f"{rpv.weighted_speedup:.3f})\n"
        f"                 ESTEEM dRPKI={paper.esteem_rpki} (measured "
        f"{es.rpki_decrease:.0f})  RPV dRPKI={paper.rpv_rpki} (measured "
        f"{rpv.rpki_decrease:.0f})"
    )
    emit(name, table + comparison)

    # Shape assertions: ESTEEM wins on energy and refresh reduction, both
    # techniques speed the system up on average.
    assert es.energy_saving_pct > rpv.energy_saving_pct
    assert es.rpki_decrease > 2 * rpv.rpki_decrease
    assert es.weighted_speedup > 1.0
    assert rpv.weighted_speedup > 0.99
