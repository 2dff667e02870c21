"""Throughput regression gate for the fast-path simulation engine.

Thin wrapper around :mod:`repro.experiments.throughput`, which measures
the end-to-end simulation rate per technique (baseline / RPV / ESTEEM)
on all three engine paths -- batch-kernel fast loop, scalar fast loop,
reference loop -- and gates against the numbers recorded in
``BENCH_throughput.json`` at the repository root.  See that module's
docstring for the exact gates; the headline one is that the batch
classification kernel must stay at or above 1.3x over the scalar fast
loop on at least one technique.

This script is the one front end for that gate (CI ``bench-smoke`` runs
it).  Usage::

    PYTHONPATH=src python benchmarks/check_throughput.py          # gate
    PYTHONPATH=src python benchmarks/check_throughput.py --update # rebaseline

Exit status 0 on pass, 1 on regression or when no baseline is recorded
(without ``--update``).  ``--update`` still applies the
baseline-independent 1.3x batch floor: a measurement that fails it is
not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.throughput import (
    BASELINE_PATH,
    check,
    make_record,
    measure,
)
from repro.util import atomic_write_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="record the current measurement as the new baseline",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression in absolute rate (default 0.25)",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds (best-of)",
    )
    args = parser.parse_args(argv)

    if not args.update and not BASELINE_PATH.exists():
        print(
            f"error: no baseline recorded at {BASELINE_PATH}; "
            f"run with --update to record one",
            file=sys.stderr,
        )
        return 1

    current = measure(rounds=args.rounds)
    print("measured:", json.dumps(current, indent=2))

    # An empty baseline leaves only the baseline-independent batch floor.
    base = {}
    if not args.update:
        baseline = json.loads(BASELINE_PATH.read_text())
        base = baseline["bench_end_to_end_simulation_rate"]

    failures = check(current, base, tolerance=args.tolerance)
    if failures:
        for f in failures:
            print("REGRESSION:", f, file=sys.stderr)
        return 1
    if args.update:
        atomic_write_json(BASELINE_PATH, make_record(current))
        print(f"baseline written to {BASELINE_PATH}")
    best = current["best_batch_speedup_vs_scalar"]
    rates = ", ".join(
        f"{t}: {row['minstr_per_s']:.1f} Minstr/s "
        f"({row['speedup_vs_reference']:.2f}x ref)"
        for t, row in current["techniques"].items()
    )
    print(f"ok: batch kernel {best:.2f}x over scalar; {rates}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
