"""Micro-benchmark: the observability layer's no-op cost.

The instrumentation contract is that a ``System`` built without a tracer
or a metrics registry (``None``, the one way to turn either off) pays
only ``is not None`` guard tests on the hot path, so the end-to-end
simulation rate (``benchmarks/e2e/run.py``) must stay within 2% of its
pre-instrumentation numbers.  Two checks enforce that locally:

1. the measured aggregate guard cost of a full ESTEEM run (guard
   executions x per-guard cost) must be < 2% of the run's wall time, and
2. a run with *enabled* tracing+metrics must not be faster than the
   no-op run (sanity: the guards really are the cheap branch).

The campaign-telemetry snapshot path (ISSUE 6) gets the same budget:
``WorkerObs.snapshot`` ships each unit's counters home over the executor
pipe, so it must cost < 2% of the unit it describes and must scale with
the number of *instruments*, never with the number of simulated records.
"""

from __future__ import annotations

import statistics
import time

from repro.config import SimConfig
from repro.obs import MetricsRegistry, Tracer
from repro.obs.campaign import WorkerObs
from repro.timing.system import System
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

_CFG = SimConfig.scaled(instructions_per_core=1_500_000)


def _trace():
    return generate_trace(get_profile("sphinx"), _CFG.instructions_per_core, seed=0)


def _time_best_of(fn, rounds: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _per_guard_seconds() -> float:
    """Cost of one ``self.tracer is not None`` style guard."""

    class _Holder:
        tracer = None

    holder = _Holder()
    n = 2_000_000
    hits = 0
    t0 = time.perf_counter()
    for _ in range(n):
        if holder.tracer is not None:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits == 0
    return elapsed / n


def bench_noop_instrumentation_overhead(benchmark):
    """Guard cost of the disabled-observability path, as % of run time."""
    trace = _trace()

    def run_noop():
        return System(_CFG, [trace], "esteem").run()

    noop_seconds, result = _time_best_of(run_noop)

    # Guard executions on the no-op path: one per L2 miss (_service), one
    # per refresh boundary (advance_to), a handful per interval (interval
    # close, energy accounting, controller), two per run.
    boundaries = int(result.total_cycles) // _CFG.refresh.retention_cycles + 1
    guards = result.l2_misses + boundaries + result.intervals * 4 + 2

    guard_seconds = _per_guard_seconds()
    overhead = guards * guard_seconds / noop_seconds

    benchmark.extra_info["noop_run_seconds"] = round(noop_seconds, 4)
    benchmark.extra_info["guard_executions"] = guards
    benchmark.extra_info["per_guard_ns"] = round(guard_seconds * 1e9, 2)
    benchmark.extra_info["overhead_fraction"] = round(overhead, 6)
    benchmark.pedantic(run_noop, rounds=1, iterations=1)

    assert overhead < 0.02, (
        f"no-op instrumentation guard cost is {overhead:.2%} of the run "
        f"({guards} guards x {guard_seconds * 1e9:.0f} ns vs "
        f"{noop_seconds:.3f}s) -- must stay under 2%"
    )


#: The enabled-vs-no-op check weighs two near-equal costs, so it takes
#: many short paired rounds: a 500k-instruction ESTEEM run is ~15 ms.
_PAIRED_CFG = SimConfig.scaled(instructions_per_core=500_000)
_PAIRED_ROUNDS = 31


def bench_enabled_vs_noop_tracing(benchmark):
    """Wall-time ratio of fully-enabled tracing+metrics vs the no-op path."""
    trace = generate_trace(
        get_profile("sphinx"), _PAIRED_CFG.instructions_per_core, seed=0
    )

    def run_noop():
        return System(_PAIRED_CFG, [trace], "esteem").run()

    def run_enabled():
        return System(
            _PAIRED_CFG,
            [trace],
            "esteem",
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        ).run()

    run_noop()  # builds the trace's cached views, untimed
    # One no-op and one enabled run per round, the side that goes first
    # alternating.  A shared host's slow spells swing one run by up to
    # 1.7x, so a best-of per side picks up lucky runs (its ratio spans
    # 0.7-1.4 between invocations); the two runs of a round share a
    # spell, and the median round discards the rounds a spell split.
    ratios, noop_times, enabled_times = [], [], []
    for r in range(_PAIRED_ROUNDS):
        if r % 2:
            enabled_seconds, enabled_result = _time_best_of(run_enabled, 1)
            noop_seconds, noop_result = _time_best_of(run_noop, 1)
        else:
            noop_seconds, noop_result = _time_best_of(run_noop, 1)
            enabled_seconds, enabled_result = _time_best_of(run_enabled, 1)
        ratios.append(noop_seconds / enabled_seconds)
        noop_times.append(noop_seconds)
        enabled_times.append(enabled_seconds)

    # Observation must not perturb simulation outcomes.
    assert enabled_result.total_cycles == noop_result.total_cycles
    assert enabled_result.refreshes == noop_result.refreshes

    noop_over_enabled = statistics.median(ratios)
    benchmark.extra_info["noop_seconds"] = round(statistics.median(noop_times), 4)
    benchmark.extra_info["enabled_seconds"] = round(
        statistics.median(enabled_times), 4
    )
    benchmark.extra_info["enabled_over_noop"] = round(1 / noop_over_enabled, 4)
    benchmark.pedantic(run_enabled, rounds=1, iterations=1)

    # The no-op path must be the cheap branch (5% slack for timer noise).
    assert noop_over_enabled <= 1.05, (
        f"no-op path slower than enabled tracing: median round ratio "
        f"{noop_over_enabled:.3f} over {_PAIRED_ROUNDS} rounds"
    )


def _snapshot_seconds(obs: WorkerObs, iterations: int = 200) -> float:
    t0 = time.perf_counter()
    for _ in range(iterations):
        obs.snapshot()
    return (time.perf_counter() - t0) / iterations


def bench_telemetry_snapshot_overhead(benchmark):
    """WorkerObs.snapshot must cost < 2% of its unit and be O(#metrics).

    Two gates:

    1. one snapshot (what a worker pays per unit attempt) costs < 2% of
       the metrics-enabled run it summarises, and
    2. a snapshot after a full 1.5M-instruction run costs at most 5x a
       snapshot of the same instrument set after a 30x smaller run --
       i.e. the cost tracks the instrument table, not the record count
       (the generous factor absorbs timer noise on a path measured in
       microseconds).
    """
    big_trace = _trace()
    small_cfg = SimConfig.scaled(instructions_per_core=50_000)
    small_trace = generate_trace(
        get_profile("sphinx"), small_cfg.instructions_per_core, seed=0
    )

    def run_with_obs(cfg, trace):
        obs = WorkerObs()
        with obs.technique_span("esteem"):
            System(cfg, [trace], "esteem", metrics=obs.registry).run()
        return obs

    run_seconds, big_obs = _time_best_of(lambda: run_with_obs(_CFG, big_trace))
    _, small_obs = _time_best_of(lambda: run_with_obs(small_cfg, small_trace))

    big_snapshot_s = _snapshot_seconds(big_obs)
    small_snapshot_s = _snapshot_seconds(small_obs)
    overhead = big_snapshot_s / run_seconds

    benchmark.extra_info["run_seconds"] = round(run_seconds, 4)
    benchmark.extra_info["snapshot_us"] = round(big_snapshot_s * 1e6, 2)
    benchmark.extra_info["snapshot_us_small_run"] = round(
        small_snapshot_s * 1e6, 2
    )
    benchmark.extra_info["overhead_fraction"] = round(overhead, 6)
    benchmark.pedantic(lambda: big_obs.snapshot(), rounds=3, iterations=100)

    assert overhead < 0.02, (
        f"telemetry snapshot costs {overhead:.2%} of the unit it describes "
        f"({big_snapshot_s * 1e6:.0f} us vs {run_seconds:.3f}s run) -- "
        f"must stay under 2%"
    )
    assert big_snapshot_s <= small_snapshot_s * 5 + 50e-6, (
        f"snapshot cost grew with record count: {big_snapshot_s * 1e6:.0f} "
        f"us after 1.5M instructions vs {small_snapshot_s * 1e6:.0f} us "
        f"after 50k -- must be O(#instruments), not O(records)"
    )
