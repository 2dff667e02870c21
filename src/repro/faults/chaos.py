"""Plane 2: chaos injection into sweep worker processes.

:class:`ChaosWorkerProxy` wraps the real per-unit work function inside a
sweep worker.  Before (and after) running the unit it consults the
:class:`~repro.faults.plan.FaultPlan`'s chaos script for this
``(workload, attempt)`` and misbehaves on demand:

``crash``
    ``os._exit(CHAOS_EXIT_CODE)`` -- the process dies without unwinding,
    like a segfault or an OOM kill.  The parent sees a broken pipe, not
    a Python exception.
``raise``
    Raises :class:`ChaosError` inside the worker -- a "normal" worker
    exception that travels back through the error channel.
``hang``
    Sleeps ``plan.hang_seconds`` before starting the unit, tripping the
    harness's wall-clock timeout (the parent terminates the worker).
``corrupt``
    Runs the unit to completion, then mangles the result so the
    harness's result validation rejects it.
``kill``
    ``SIGKILL`` to self -- the hardest crash there is: no exit handler,
    no SIGTERM flush, telemetry unconditionally lost.

These are exactly the failure modes the resilient sweep harness must
survive; the proxy exists so tests and benchmarks can script them
deterministically instead of waiting for real infrastructure to flake.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable

from repro.faults.plan import FaultPlan

__all__ = [
    "CHAOS_EXIT_CODE",
    "ChaosError",
    "ChaosWorkerProxy",
    "corrupt_result",
]

#: Exit status used by ``crash`` so tests can tell a scripted crash from a
#: genuine interpreter death.
CHAOS_EXIT_CODE = 86


class ChaosError(RuntimeError):
    """Deterministic failure raised by the ``raise`` chaos action."""


def corrupt_result(result):
    """Mangle a worker result so validation rejects it.

    Returns a stand-in that is *not* the list of comparisons the harness
    expects, simulating a worker whose result pipe delivered garbage.
    """
    return {"corrupted": True, "original_type": type(result).__name__}


class ChaosWorkerProxy:
    """Wraps a unit-of-work callable with scripted misbehaviour."""

    def __init__(self, plan: FaultPlan, workload: str, attempt: int) -> None:
        self.plan = plan
        self.workload = workload
        self.attempt = attempt
        self.action = plan.chaos_action(workload, attempt)

    def __call__(self, fn: Callable[[], object]) -> object:
        action = self.action
        if action == "crash":
            os._exit(CHAOS_EXIT_CODE)
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "raise":
            raise ChaosError(
                f"scripted failure for workload {self.workload!r} "
                f"(attempt {self.attempt})"
            )
        if action == "hang":
            time.sleep(self.plan.hang_seconds)
        result = fn()
        if action == "corrupt":
            return corrupt_result(result)
        return result
