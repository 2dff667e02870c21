"""Process-wide trace cache with an LRU byte cap.

Trace generation is deterministic in ``(benchmark, instruction budget,
seed)`` but not free: at the default 12M-instruction budget the slowest
workload (xsbench, 462k records) takes about 0.35 s on a 2-vCPU x86-64
VM, and all 34 take about 3.6 s.  Every figure/table bench reuses the
same traces across techniques and configurations.  This module memoises
them for the lifetime of the process.

The cache is bounded: entries are kept in least-recently-used order and
evicted once the summed column payload exceeds the byte cap (default
1 GiB, overridable via ``REPRO_TRACE_CACHE_BYTES``), so a long sweep
process cannot grow without bound.  Accounting covers the NumPy columns
only, 17 B per record -- the lazily materialised list views a trace may
carry ride along with their trace uncounted and are dropped by the same
eviction.  The fast loop's columnar retire view
(:meth:`~repro.workloads.trace.Trace.retire_records`) measures about
64 B per record per (core offset, CPI) key, so a trace that one core
has run holds about 81 B per record in all, nearly five times what the
cap counts; sweep workers therefore :func:`discard` the traces a unit
attached once it ends.  The most recent entry is always retained, even
when it alone exceeds the cap: evicting the trace that was just
inserted would guarantee regeneration thrash.
"""

from __future__ import annotations

import os
from collections import OrderedDict

from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace

__all__ = [
    "DEFAULT_MAX_BYTES",
    "clear",
    "contains",
    "current_bytes",
    "discard",
    "get_trace",
    "max_bytes",
    "put",
]

#: Default cache cap: roomy enough for every Table 1 workload at paper
#: bench scale, small enough that a pool worker cannot balloon.
DEFAULT_MAX_BYTES = 1 << 30

_CACHE: "OrderedDict[tuple[str, int, int], Trace]" = OrderedDict()
_CACHE_BYTES = 0


def max_bytes() -> int:
    """The active byte cap (``REPRO_TRACE_CACHE_BYTES`` wins when valid)."""
    raw = os.environ.get("REPRO_TRACE_CACHE_BYTES")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return DEFAULT_MAX_BYTES
        if value > 0:
            return value
    return DEFAULT_MAX_BYTES


def current_bytes() -> int:
    """Column payload bytes currently held."""
    return _CACHE_BYTES


def _trace_nbytes(trace: Trace) -> int:
    return trace.addrs.nbytes + trace.writes.nbytes + trace.gaps.nbytes


def _insert(key: tuple[str, int, int], trace: Trace) -> None:
    global _CACHE_BYTES
    old = _CACHE.pop(key, None)
    if old is not None:
        _CACHE_BYTES -= _trace_nbytes(old)
    _CACHE[key] = trace
    _CACHE_BYTES += _trace_nbytes(trace)
    cap = max_bytes()
    while _CACHE_BYTES > cap and len(_CACHE) > 1:
        _evicted_key, evicted = _CACHE.popitem(last=False)
        _CACHE_BYTES -= _trace_nbytes(evicted)


def get_trace(
    profile: BenchmarkProfile, max_instructions: int, seed: int
) -> Trace:
    """Memoised :func:`repro.workloads.synthetic.generate_trace`."""
    key = (profile.name, max_instructions, seed)
    trace = _CACHE.get(key)
    if trace is None:
        trace = generate_trace(profile, max_instructions, seed=seed)
        _insert(key, trace)
    else:
        _CACHE.move_to_end(key)
    return trace


def put(
    profile_name: str, max_instructions: int, seed: int, trace: Trace
) -> None:
    """Seed the cache with an externally built trace.

    Sweep workers receive the parent's already-generated traces as
    shared-memory handles and install them here, so a
    worker never regenerates a trace the parent (or an earlier sweep) has
    built.
    """
    _insert((profile_name, max_instructions, seed), trace)


def contains(profile_name: str, max_instructions: int, seed: int) -> bool:
    """Whether a trace is cached (touches LRU recency).

    Sweep workers use this to keep a trace inherited across the fork
    instead of attaching the same shared segment again.
    """
    key = (profile_name, max_instructions, seed)
    if key in _CACHE:
        _CACHE.move_to_end(key)
        return True
    return False


def discard(profile_name: str, max_instructions: int, seed: int) -> None:
    """Drop one trace, if cached.

    A sweep worker drops the traces a unit installed once the unit ends,
    so their uncounted retire views do not outlive it.
    """
    global _CACHE_BYTES
    trace = _CACHE.pop((profile_name, max_instructions, seed), None)
    if trace is not None:
        _CACHE_BYTES -= _trace_nbytes(trace)


def clear() -> None:
    """Drop all cached traces (tests use this to bound memory)."""
    global _CACHE_BYTES
    _CACHE.clear()
    _CACHE_BYTES = 0
