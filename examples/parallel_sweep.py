#!/usr/bin/env python
"""Scenario: a multi-core parameter sweep using all local CPUs.

Sweeps ESTEEM against RPV over a workload list with process-parallel
execution (``resilient_sweep``, the engine behind ``repro sweep``,
``repro figure`` and ``repro table``), the way one would drive the full
34-workload evaluation on a many-core workstation, and checks the result
against the sequential ``Runner``.

Usage::

    python examples/parallel_sweep.py [jobs] [instructions]
"""

from __future__ import annotations

import os
import sys
import time

from repro import SimConfig
from repro.experiments.parallel import resilient_sweep
from repro.experiments.report import format_table
from repro.experiments.runner import Runner, aggregate

WORKLOADS = [
    "gamess", "gobmk", "h264ref", "hmmer", "sphinx",
    "dealII", "libquantum", "mcf",
]


def main() -> None:
    jobs = int(sys.argv[1]) if len(sys.argv) > 1 else (os.cpu_count() or 2)
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 3_000_000
    config = SimConfig.scaled(instructions_per_core=instructions)

    t0 = time.perf_counter()
    result = resilient_sweep(config, WORKLOADS, ("esteem", "rpv"), jobs=jobs)
    t_par = time.perf_counter() - t0
    if result.degraded:
        raise SystemExit(f"sweep lost units: {result.failed}")
    parallel = result.comparisons

    t0 = time.perf_counter()
    runner = Runner(config)
    sequential = {t: runner.compare_many(WORKLOADS, t) for t in parallel}
    t_seq = time.perf_counter() - t0
    if sequential != parallel:
        raise SystemExit("the sweep disagrees with the sequential Runner")

    rows = [
        [c.workload, c.energy_saving_pct, c.weighted_speedup,
         r.energy_saving_pct, r.weighted_speedup]
        for c, r in zip(parallel["esteem"], parallel["rpv"])
    ]
    es = aggregate(parallel["esteem"])
    rpv = aggregate(parallel["rpv"])
    rows.append(["AVERAGE", es.energy_saving_pct, es.weighted_speedup,
                 rpv.energy_saving_pct, rpv.weighted_speedup])
    print(
        format_table(
            ["workload", "ES sav%", "ES WS", "RPV sav%", "RPV WS"],
            rows,
            title=f"parallel sweep over {len(WORKLOADS)} workloads",
        )
    )
    print(
        f"\nwall-clock: parallel ({jobs} jobs) {t_par:.1f}s  "
        f"vs sequential {t_seq:.1f}s  -> {t_seq / t_par:.1f}x speedup"
    )


if __name__ == "__main__":
    main()
