"""End-to-end simulation throughput: measurement and regression gates.

One measurement pass produces a per-technique table (baseline / RPV /
ESTEEM) timing all three engine paths back to back in the same process:

* **batch** -- the default fast loop with the batch classification
  kernel (:mod:`repro.timing.batch_kernel`) enabled;
* **scalar** -- the same fast loop with the kernel pinned off
  (``batch_kernel=False``), i.e. the pre-kernel scalar fast path;
* **reference** -- the straight-line reference loop
  (``reference_loop=True``), the executable spec.

Three gates, in order of trustworthiness (same-process ratios first,
cross-machine absolute rates last):

* **batch-kernel floor** -- the *best* batch-vs-scalar speedup across the
  techniques must stay at or above :data:`BATCH_SPEEDUP_FLOOR` (1.3x).
  Machine-independent and absolute: losing the kernel (or its
  eligibility) trips this even on a freshly rebaselined record.
  ESTEEM is why this is a max, not a per-row bound: its interval
  controller makes every ESTEEM run scalar by design (see
  :mod:`repro.timing.batch_kernel`), so its batch and scalar paths time
  the same loop and its ``kernel_batch_records`` is 0.
* **reference speedup floor** -- per technique, the batch path vs the
  reference loop must stay above half the recorded speedup (floored at
  1.5x), so CI noise cannot trip it but losing the fast path will.
* **absolute rate** -- per technique, simulated instructions per second
  may regress at most ``tolerance`` (default 25%) below the recorded
  rate.  Cross-machine wall times are noisy; the recorded baseline
  carries the machine string and this check is deliberately generous.

``benchmarks/check_throughput.py`` is the one front end: it runs
:func:`measure`, gates it with :func:`check` and, with ``--update``,
records it with :func:`make_record` (CI ``bench-smoke`` runs it).

The workload scale matters: the kernel's win comes from hit-dominated
steady state, and short traces are cold-miss dominated (the warm-up
transient understates any hit-path optimisation).  The default scale is
the smallest at which sphinx reaches its steady-state hit rate while the
whole bench still finishes in well under a CI minute.
"""

from __future__ import annotations

import platform
import time
from pathlib import Path

from repro.config import SimConfig
from repro.timing.system import System
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

__all__ = [
    "BASELINE_PATH",
    "BATCH_SPEEDUP_FLOOR",
    "DEFAULT_INSTRUCTIONS",
    "DEFAULT_WORKLOAD",
    "TECHNIQUES",
    "check",
    "measure",
    "make_record",
]

BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_throughput.json"

#: Scale at which the bench workload is hit-dominated (see module doc).
DEFAULT_INSTRUCTIONS = 24_000_000
DEFAULT_WORKLOAD = "sphinx"
TECHNIQUES = ("baseline", "rpv", "esteem")

#: Hard floor for max-over-techniques batch-vs-scalar speedup.
BATCH_SPEEDUP_FLOOR = 1.3


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best


def measure(
    instructions: int = DEFAULT_INSTRUCTIONS,
    rounds: int = 3,
    reference_rounds: int = 2,
) -> dict:
    """Best-of-N timings for every (technique, engine path) pair."""
    cfg = SimConfig.scaled(num_cores=1, instructions_per_core=instructions)
    trace = generate_trace(get_profile(DEFAULT_WORKLOAD), instructions, seed=0)

    rows: dict[str, dict] = {}
    best_batch_speedup = 0.0
    for technique in TECHNIQUES:
        # One warm-up run per technique populates the trace column caches
        # and the warm-image cache so the timed rounds measure the steady
        # state CI cares about; it also yields the kernel-selection split.
        warm = System(cfg, [trace], technique)
        result = warm.run()

        batch_s = _best_of(
            lambda: System(cfg, [trace], technique).run(),
            rounds,
        )
        scalar_s = _best_of(
            lambda: System(cfg, [trace], technique, batch_kernel=False).run(),
            rounds,
        )
        ref_s = _best_of(
            lambda: System(cfg, [trace], technique, reference_loop=True).run(),
            reference_rounds,
        )
        batch_speedup = scalar_s / batch_s
        best_batch_speedup = max(best_batch_speedup, batch_speedup)
        rows[technique] = {
            "batch_seconds": round(batch_s, 4),
            "scalar_seconds": round(scalar_s, 4),
            "reference_seconds": round(ref_s, 4),
            "minstr_per_s": round(result.total_instructions / batch_s / 1e6, 3),
            "batch_speedup_vs_scalar": round(batch_speedup, 2),
            "speedup_vs_reference": round(ref_s / batch_s, 2),
            "kernel_batch_records": warm.kernel_batch_records,
            "kernel_scalar_records": warm.kernel_scalar_records,
        }

    return {
        "workload": DEFAULT_WORKLOAD,
        "instructions": instructions,
        "techniques": rows,
        "best_batch_speedup_vs_scalar": round(best_batch_speedup, 2),
    }


def make_record(current: dict) -> dict:
    """The JSON document recorded as ``BENCH_throughput.json``."""
    return {
        "bench_end_to_end_simulation_rate": current,
        "machine": platform.platform(),
        "note": (
            "best-of-N wall times per technique and engine path; the "
            "same-process ratios (batch_speedup_vs_scalar, "
            "speedup_vs_reference) are the machine-independent figures"
        ),
    }


def check(current: dict, baseline: dict, tolerance: float = 0.25) -> list[str]:
    """Gate ``current`` against the recorded ``baseline``.

    Returns a list of human-readable failure strings (empty = pass).  An
    empty ``baseline`` applies only the batch-kernel floor.
    """
    failures: list[str] = []

    best = current.get("best_batch_speedup_vs_scalar", 0.0)
    if best < BATCH_SPEEDUP_FLOOR:
        failures.append(
            f"batch kernel speedup {best:.2f}x over the scalar fast loop "
            f"fell below the {BATCH_SPEEDUP_FLOOR:.1f}x floor on every "
            f"technique"
        )

    base_rows = baseline.get("techniques", {})
    for technique, row in current["techniques"].items():
        base = base_rows.get(technique)
        if base is None:
            continue
        floor = max(1.5, base["speedup_vs_reference"] / 2)
        if row["speedup_vs_reference"] < floor:
            failures.append(
                f"{technique}: speedup vs reference loop "
                f"{row['speedup_vs_reference']:.2f}x fell below the floor "
                f"{floor:.2f}x (recorded: {base['speedup_vs_reference']:.2f}x)"
            )
        min_rate = base["minstr_per_s"] * (1 - tolerance)
        if row["minstr_per_s"] < min_rate:
            failures.append(
                f"{technique}: simulation rate {row['minstr_per_s']:.3f} "
                f"Minstr/s is more than {tolerance:.0%} below the recorded "
                f"{base['minstr_per_s']:.3f} Minstr/s"
            )
    return failures
