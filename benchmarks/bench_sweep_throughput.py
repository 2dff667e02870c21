"""Sweep-engine throughput: warm worker pool and result cache.

Measures the same full-paper sweep (every Table 1 workload under the
reconfiguring and refresh-reduction techniques) three ways:

* **pool**      -- the warm worker pool with shared-memory trace
  shipping, no result cache (isolates the engine itself);
* **pool+store** -- the pool over a *cold* result cache (every unit
  computed, then fingerprinted and stored);
* **cached**    -- the same sweep again over the now-warm cache (every
  unit served by fingerprint, nothing simulated).

Gates (measured back to back in-process), in both modes:

* every pass is bit-for-bit identical to the sequential
  :class:`~repro.experiments.runner.Runner` for every (workload,
  technique), and the cached pass runs zero attempts;
* one warm worker serves every unit of the one-job sweep;
* no shared-memory segment outlives its sweep;
* the warm-cache pass is at least 10x faster than the pass that filled
  the cache (a machine-independent ratio).

``--smoke`` runs the CI scale: 4 workloads x 2 techniques at a tiny
instruction budget.  The pool's own speed is gated elsewhere: by the
end-to-end ``sweep-cold`` workload and by ``repro report --check``
against this file's recorded ``pool_seconds``.

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py           # gate
    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py --update  # rebaseline

Exit status 0 on pass, 1 on regression.  ``--update`` rewrites
``BENCH_sweep.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.config import SimConfig
from repro.experiments import pool as poolmod
from repro.experiments.parallel import resilient_sweep
from repro.experiments.result_cache import ResultCache
from repro.experiments.runner import Runner
from repro.util import atomic_write_json
from repro.workloads.profiles import ALL_BENCHMARKS

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

SEED = 0

#: Full scale: the complete Table 1 workload set under both paper
#: techniques plus the decay baseline -- 34 units x (baseline + 3 runs).
FULL_WORKLOADS = [b.name for b in ALL_BENCHMARKS]
FULL_TECHNIQUES = ("esteem", "rpv", "decay")
FULL_INSTRUCTIONS = 150_000
FULL_ROUNDS = 2

#: CI smoke: small enough that the whole bench fits in the job budget.
SMOKE_WORKLOADS = ["gamess", "h264ref", "libquantum", "mcf"]
SMOKE_TECHNIQUES = ("esteem", "rpv")
SMOKE_INSTRUCTIONS = 20_000
SMOKE_ROUNDS = 3

WARM_CACHE_FLOOR = 10.0


def _config(instructions: int) -> SimConfig:
    return SimConfig.scaled(
        instructions_per_core=instructions
    ).with_esteem(interval_cycles=100_000)


def _timed_sweep(config, workloads, techniques, **kw):
    t0 = time.perf_counter()
    result = resilient_sweep(
        config, workloads, techniques, seed=SEED, jobs=1, **kw
    )
    elapsed = time.perf_counter() - t0
    if result.degraded:
        raise AssertionError(
            f"sweep degraded: {[f.workload for f in result.failed]}"
        )
    return elapsed, result


def _best_of(rounds, config, workloads, techniques, **kw):
    """Best wall time over ``rounds`` identical sweeps (noise floor)."""
    best_s, result = _timed_sweep(config, workloads, techniques, **kw)
    for _ in range(rounds - 1):
        elapsed, result = _timed_sweep(config, workloads, techniques, **kw)
        best_s = min(best_s, elapsed)
    return best_s, result


def run_scenario(workloads, techniques, instructions, rounds) -> dict:
    config = _config(instructions)

    # Prewarm the trace cache -- including each trace's lazily
    # materialised per-run views -- so forked workers inherit warm state
    # and the timings isolate engine overhead rather than first-touch
    # costs.
    runner = Runner(config, seed=SEED)
    for workload in workloads:
        runner.traces_for(workload)
        runner.run(workload, "baseline")

    segments_before = set(poolmod.created_shm_segments())

    pool_s, pooled = _best_of(rounds, config, workloads, techniques)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        store_s, stored = _timed_sweep(
            config, workloads, techniques, cache=cache
        )
        cached_s, cached = _timed_sweep(
            config, workloads, techniques, cache=cache
        )

    # Correctness gates before any speed claims.
    sequential = {
        t: [runner.compare(w, t) for w in workloads] for t in techniques
    }
    assert pooled.comparisons == sequential, (
        "pooled sweep must be bit-for-bit identical to the sequential Runner"
    )
    assert stored.comparisons == sequential
    assert cached.comparisons == stored.comparisons, (
        "cached sweep must be bit-for-bit identical to the run it cached"
    )
    assert cached.attempts == 0, "warm cache must serve every unit"
    assert sorted(cached.cached) == sorted(workloads)
    assert pooled.workers_spawned == 1, "one warm worker serves every unit"

    leaked = [
        s
        for s in poolmod.active_shm_segments()
        if s not in segments_before
    ]
    assert leaked == [], f"leaked shared-memory segments: {leaked}"

    return {
        "workloads": len(workloads),
        "techniques": list(techniques),
        "instructions": instructions,
        "rounds": rounds,
        "pool_seconds": round(pool_s, 4),
        "pool_store_seconds": round(store_s, 4),
        "cached_seconds": round(cached_s, 4),
        "warm_cache_speedup": round(store_s / max(cached_s, 1e-9), 1),
        "workers_spawned_pool": pooled.workers_spawned,
        "leaked_segments": len(leaked),
    }


def _report(summary: dict) -> str:
    return "\n".join(f"{k}: {summary[k]}" for k in sorted(summary))


def bench_sweep_throughput(run_once):
    summary = run_once(
        lambda: run_scenario(
            SMOKE_WORKLOADS, SMOKE_TECHNIQUES, SMOKE_INSTRUCTIONS, SMOKE_ROUNDS
        )
    )
    from conftest import emit

    emit("sweep_throughput", _report(summary))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI scale: 4 workloads x 2 techniques",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"rewrite {BASELINE_PATH.name} from this run",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        summary = run_scenario(
            SMOKE_WORKLOADS, SMOKE_TECHNIQUES, SMOKE_INSTRUCTIONS, SMOKE_ROUNDS
        )
    else:
        summary = run_scenario(
            FULL_WORKLOADS, FULL_TECHNIQUES, FULL_INSTRUCTIONS, FULL_ROUNDS
        )

    print("sweep engine comparison:")
    print("  " + _report(summary).replace("\n", "\n  "))

    failures = []
    if summary["leaked_segments"]:
        failures.append(f"{summary['leaked_segments']} leaked shm segments")
    if summary["warm_cache_speedup"] < WARM_CACHE_FLOOR:
        failures.append(
            f"warm-cache speedup {summary['warm_cache_speedup']}x is below "
            f"the {WARM_CACHE_FLOOR}x floor"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1

    if args.update:
        payload = {
            "bench_sweep_throughput": summary,
            "machine": platform.platform(),
            "note": (
                "best-of-N in-process wall times for pool_seconds, single "
                "passes for the cache; warm_cache_speedup (cache-filling "
                "pass over warm-cache pass) is the machine-independent "
                "figure"
            ),
        }
        atomic_write_json(BASELINE_PATH, payload)
        print(f"baseline updated: {BASELINE_PATH}")

    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
