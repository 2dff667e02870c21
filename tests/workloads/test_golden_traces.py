"""Pinned generator output: sha256 digests of whole synthetic traces.

Every simulated number in the repository starts from these traces, so any
change to the generator that alters a single record must show up here.
The fixture covers all 34 profiles at 300k instructions (seed 0), the
multi-phase profiles at budgets that cross a segment boundary and cut the
next segment part-way, and one ``max_records`` cut.

Regenerate the fixture only for a deliberate trace change (it also
invalidates every cached result and pinned benchmark digest)::

    PYTHONPATH=src python tests/workloads/test_golden_traces.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.workloads.profiles import ALL_BENCHMARKS, get_profile
from repro.workloads.synthetic import generate_trace

FIXTURE = Path(__file__).with_name("golden_traces.json")

#: (workload, instructions, seed, max_records)
CASES: list[tuple[str, int, int, int | None]] = [
    (p.name, 300_000, 0, None) for p in ALL_BENCHMARKS
] + [
    # Multi-phase profiles: two or more segments, the last one cut.
    ("gcc", 5_000_000, 0, None),
    ("h264ref", 3_000_000, 0, None),
    ("wrf", 4_000_000, 0, None),
    ("xalancbmk", 4_000_000, 0, None),
    ("lulesh", 4_000_000, 0, None),
    # Record cap inside the second 40k-record segment.
    ("sphinx", 10**9, 0, 50_000),
]


def case_id(case: tuple[str, int, int, int | None]) -> str:
    name, instructions, seed, max_records = case
    tail = f"/r{max_records}" if max_records is not None else ""
    return f"{name}/{instructions}/s{seed}{tail}"


def trace_digest(case: tuple[str, int, int, int | None]) -> dict:
    name, instructions, seed, max_records = case
    trace = generate_trace(
        get_profile(name), instructions, seed=seed, max_records=max_records
    )
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.addrs, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(trace.writes, dtype=bool).tobytes())
    h.update(np.ascontiguousarray(trace.gaps, dtype="<i8").tobytes())
    return {"records": len(trace), "sha256": h.hexdigest()}


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert sorted(_load()) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_trace_matches_pinned_digest(case):
    assert trace_digest(case) == _load()[case_id(case)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_traces.py --write")
    FIXTURE.write_text(
        json.dumps({case_id(c): trace_digest(c) for c in CASES}, indent=1)
        + "\n"
    )
    print(f"wrote {len(CASES)} digests to {FIXTURE}")
