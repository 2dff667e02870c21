"""Supervised execution: campaign guardrails for the sweep loop.

:func:`~repro.experiments.parallel.resilient_sweep` drives the warm
:class:`~repro.experiments.pool.WorkerPool` through a small protocol --
``start`` / ``finish`` / ``abort`` / ``close`` plus the
``workers_spawned`` / ``workers_recycled`` counters.  This module holds
the supervision the loop layers on top of it.

**Supervision primitives.**  Small, independently testable pieces the
sweep loop composes:

* :class:`DeadlineBudget` -- a per-campaign wall-clock budget.  When it
  expires the sweep cancels fairly: running attempts are aborted and
  every unfinished unit is recorded as ``skipped-deadline`` in the
  checkpoint and manifest -- never silently dropped.
* :class:`ParentSignalWatch` -- graceful-drain flag for SIGINT/SIGTERM
  on the *parent*.  Handlers only set a flag (never raise mid-I/O), the
  sweep loop polls it, flushes checkpoint + partial manifest + campaign
  telemetry, and the CLI exits with a distinct code so wrappers can tell
  "interrupted, resumable" from "failed".
* :func:`full_jitter_delay` -- seeded full-jitter exponential backoff,
  so simultaneous transient failures across pool workers do not retry in
  lockstep, yet every delay is reproducible from the sweep seed.
"""

from __future__ import annotations

import random
import signal
import time
from typing import Any

from repro.util import stable_fingerprint

__all__ = [
    "DeadlineBudget",
    "ParentSignalWatch",
    "full_jitter_delay",
]


# ----------------------------------------------------------------------
# Campaign deadline budget
# ----------------------------------------------------------------------


class DeadlineBudget:
    """Per-campaign wall-clock budget against a monotonic start."""

    def __init__(self, deadline_s: float, start: float | None = None) -> None:
        if deadline_s <= 0:
            raise ValueError("campaign deadline must be positive")
        self.deadline_s = float(deadline_s)
        self.start = time.monotonic() if start is None else start

    @property
    def expires_at(self) -> float:
        return self.start + self.deadline_s

    def expired(self, now: float | None = None) -> bool:
        now = time.monotonic() if now is None else now
        return now >= self.expires_at


# ----------------------------------------------------------------------
# Parent signal watch (crash-safe campaign recovery)
# ----------------------------------------------------------------------


class ParentSignalWatch:
    """Context manager turning SIGINT/SIGTERM into a graceful-drain flag.

    Handlers never raise: they record the signal name, and the sweep
    loop polls :attr:`signame` at its (bounded-wait) top, so a signal
    can never land mid-``os.replace`` or mid-pipe-read.  A second signal
    of the same kind while draining restores the previous handler and
    re-raises it -- an impatient operator can still force-kill.  Outside
    the main thread, signal handlers cannot be installed; the watch then
    degrades to an inert flag holder.
    """

    def __init__(self) -> None:
        self.signame: str | None = None
        self._previous: dict[int, Any] = {}

    def _handle(self, signum, frame) -> None:  # pragma: no cover - signals
        if self.signame is not None:
            # Second signal: stop being graceful.
            previous = self._previous.get(signum, signal.SIG_DFL)
            signal.signal(signum, previous)
            signal.raise_signal(signum)
            return
        self.signame = signal.Signals(signum).name

    def __enter__(self) -> "ParentSignalWatch":
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):
                pass  # non-main thread: poll-only, signals use defaults
        return self

    def __exit__(self, *exc_info) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        self._previous.clear()


# ----------------------------------------------------------------------
# Seeded full-jitter backoff
# ----------------------------------------------------------------------


def full_jitter_delay(
    base_s: float, seed: int, workload: str, attempt: int
) -> float:
    """Full-jitter backoff: uniform in ``[0, base_s * 2**(attempt-1))``.

    Simultaneous transient failures (e.g. every pool worker hitting the
    same flaky mount) must not retry in lockstep; full jitter spreads
    them across the whole window (AWS's analysis shows it beats equal or
    decorrelated jitter for contended retries).  The draw is keyed by
    ``(seed, workload, attempt)`` through the same stable-fingerprint
    scheme the result cache uses, so a resumed or re-run sweep backs off
    identically -- reproducible, yet uncorrelated across workloads.
    """
    if base_s <= 0:
        return 0.0
    window = base_s * (2 ** max(attempt - 1, 0))
    digest = stable_fingerprint(
        {"seed": seed, "purpose": "backoff", "workload": workload,
         "attempt": attempt},
        length=16,
    )
    rng = random.Random(int(digest, 16))
    return window * rng.random()
