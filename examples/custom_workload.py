#!/usr/bin/env python
"""Scenario: bringing your own workload to the simulator.

Shows the two ways to drive the simulator with custom traffic:

1. Define a :class:`BenchmarkProfile` for the synthetic generator -- here,
   a "key-value store" with a hot index, a scan phase (compaction), and a
   cold log stream -- and run it through the full technique comparison.
2. Build a :class:`Trace` by hand (e.g. converted from a real application
   trace) and run it directly.

Usage::

    python examples/custom_workload.py
"""

from __future__ import annotations

from repro import Runner, SimConfig
from repro.experiments.report import format_table
from repro.timing.system import System
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.synthetic import PhaseSpec, generate_trace
from repro.workloads.trace import Trace

KVSTORE = BenchmarkProfile(
    name="kvstore",
    acronym="Kv",
    suite="custom",
    phases=(
        # Serving phase: hot index, highly reusable.
        PhaseSpec(ws_lines=12_000, p_new=0.02, p_near=0.80, d_mean=3.0,
                  segment_records=20_000),
        # Compaction phase: scan over the whole store (anti-LRU).
        PhaseSpec(ws_lines=80_000, pattern="scan", segment_records=6_000),
        # Log-append phase: cold streaming writes.
        PhaseSpec(ws_lines=150_000, pattern="stream", segment_records=6_000),
    ),
    write_fraction=0.40,
    gap_mean=90.0,
    base_cpi=1.1,
    mem_mlp=1.6,
    footprint_lines=160_000,
    description="synthetic key-value store: serve / compact / append",
)


def run_generated_workload() -> None:
    config = SimConfig.scaled(instructions_per_core=5_000_000)
    trace = generate_trace(KVSTORE, config.instructions_per_core, seed=0)
    print(
        f"generated {len(trace):,} L2 accesses over "
        f"{trace.instructions:,} instructions "
        f"({trace.distinct_lines():,} distinct lines, "
        f"{trace.write_fraction:.0%} writes)\n"
    )
    baseline = System(config, [trace], "baseline").run()
    rows = []
    for technique in ("rpv", "esteem"):
        res = System(config, [trace], technique).run()
        rows.append(
            [
                technique.upper(),
                (baseline.total_energy_j - res.total_energy_j)
                / baseline.total_energy_j * 100.0,
                res.ipcs[0] / baseline.ipcs[0],
                baseline.rpki - res.rpki,
                res.mean_active_fraction * 100.0,
            ]
        )
    print(
        format_table(
            ["technique", "saving %", "speedup", "dRPKI", "active %"],
            rows,
            title="kvstore under the eDRAM techniques",
        )
    )


def run_handmade_trace() -> None:
    """A Trace can also be assembled record by record."""
    # A pathological pattern: ping-pong between two lines + a cold sweep.
    addrs, writes, gaps = [], [], []
    for i in range(30_000):
        if i % 3 < 2:
            addrs.append(i % 2)  # ping-pong
        else:
            addrs.append(1_000 + i)  # cold sweep
        writes.append(i % 5 == 0)
        gaps.append(40)
    trace = Trace(
        name="handmade", addrs=addrs, writes=writes, gaps=gaps,
        base_cpi=1.0, mem_mlp=1.0, footprint_lines=40_000,
    )
    config = SimConfig.scaled(instructions_per_core=trace.instructions)
    res = System(config, [trace], "esteem").run()
    print(
        f"\nhandmade trace: IPC={res.ipcs[0]:.3f}, "
        f"L2 miss rate={res.l2_miss_rate:.1%}, "
        f"active ratio={res.mean_active_fraction:.0%}"
    )


if __name__ == "__main__":
    run_generated_workload()
    run_handmade_trace()
