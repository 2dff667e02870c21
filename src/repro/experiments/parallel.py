"""Process-parallel experiment execution.

The figure/table sweeps are embarrassingly parallel across workloads: each
(workload, techniques) unit regenerates its traces, runs the baseline once,
and runs each technique against it.  This module fans those units out over
worker processes.

Granularity note: parallelism is per *workload*, not per (workload,
technique) -- the baseline run and the generated traces are shared between
techniques within a worker, which is the same sharing the sequential
:class:`~repro.experiments.runner.Runner` exploits.

One execution path: :func:`resilient_sweep` runs every sweep (``repro
sweep``, ``repro figure`` 3-6 and one per row of ``repro table 3``).  It
dispatches units to one engine, the
:class:`~repro.experiments.pool.WorkerPool`: a persistent pool of *warm*
workers that amortise interpreter start, module imports and memoised
warm-L2 images across units, receive traces zero-copy as shared-memory
handles, and are recycled only on crash or hang.  The
timeout/retry/degradation state machine lives in this module; the
sequential :class:`~repro.experiments.runner.Runner` is its bit-for-bit
reference.

Results can additionally be served from a content-addressed
:class:`~repro.experiments.result_cache.ResultCache`: units whose full
input fingerprint (profiles, budget, seed, techniques, config, fault
plan, engine version) matches a cached entry are returned bit-for-bit
without running at all.  That is also how an interrupted sweep is
finished: the same sweep again, its finished units served from the
cache.

Observability: with ``progress=True`` (or a custom
:class:`~repro.obs.campaign.ProgressReporter`) each completed workload
prints a progress + ETA line to stderr; each worker times its own unit
and the wall time rides back with the results.
Worker failures surface as :class:`ParallelWorkerError` naming the failing
workload, with the worker-side traceback in the message -- not as a bare
unpicklable exception from a worker process.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait as pipe_wait
from typing import Any, Iterable, Sequence

from repro.config import SimConfig
from repro.experiments.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.experiments.result_cache import ResultCache, probe_unit
from repro.experiments.runner import RunComparison, Runner, profiles_for
from repro.faults.plan import FaultPlan
from repro.obs.campaign import (
    CampaignAggregator,
    ProgressReporter,
    current_worker_obs,
    telemetry_from_message,
)

__all__ = [
    "FailedWorkload",
    "ParallelWorkerError",
    "ParentSignalWatch",
    "SkippedWorkload",
    "SweepResult",
    "TRANSIENT_EXC_TYPES",
    "resilient_sweep",
]

#: Worker exception type names the resilient sweep treats as *transient*
#: (worth retrying): infrastructure deaths, not deterministic bugs in the
#: unit itself.  A deterministic failure (assertion, ValueError, a
#: scripted ChaosError) would fail identically on every retry, so it
#: fails fast instead of burning the retry budget.
TRANSIENT_EXC_TYPES: frozenset[str] = frozenset(
    {
        "TimeoutError",
        "WorkerCrash",
        "CorruptResult",
        "BrokenPipeError",
        "EOFError",
        "ConnectionResetError",
        "ConnectionError",
        "OSError",
        "MemoryError",
    }
)


class ParallelWorkerError(RuntimeError):
    """A sweep worker died; carries the workload that was running.

    The worker-side traceback is folded into the message because raw
    exceptions (with their tracebacks and possibly unpicklable payloads)
    do not cross the process boundary reliably.  ``exc_type`` preserves
    the *original* exception's type name across that flattening, so the
    parent's retry logic can still distinguish transient infrastructure
    failures from deterministic ones.
    """

    def __init__(
        self, workload: str, detail: str, exc_type: str = "ParallelWorkerError"
    ) -> None:
        super().__init__(workload, detail, exc_type)
        self.workload = workload
        self.detail = detail
        self.exc_type = exc_type

    def __str__(self) -> str:
        return (
            f"sweep worker failed on workload {self.workload!r} "
            f"[{self.exc_type}]: {self.detail}"
        )


def _trace_needs_for(config: SimConfig, workload: str, seed: int) -> list[tuple]:
    """``(cache_key, profile)`` pairs a workload's unit will ask for
    (mirrors :meth:`Runner.traces_for`)."""
    budget = config.instructions_per_core
    return [
        ((p.name, budget, seed), p) for p in profiles_for(config, workload)
    ]


def _workload_task(
    args: tuple,
) -> tuple[list[RunComparison], float]:
    """Worker: all techniques for one workload (module-level: picklable).

    ``args`` is ``(config, workload, techniques, seed, preloaded, plan)``;
    ``plan`` is a :class:`FaultPlan` whose hardware faults (Plane 1) are
    injected into every simulated system, or ``None``.

    ``preloaded`` maps trace cache keys to the
    :class:`~repro.workloads.trace.TraceShmHandle` descriptors of the
    shared-memory segments the parent exported this workload's traces
    into.  The worker attaches them zero-copy and seeds its trace cache
    instead of regenerating; a handle whose trace is already cached
    (inherited across the fork) is skipped so the inherited copy serves.
    The traces this unit installed are dropped when it ends, whether it
    succeeded or not: the next unit on a warm worker is another
    workload, and each trace's retire view (about 64 B per record,
    which the trace cache's byte cap does not count) would otherwise
    stay until the pool ends.  Returns the comparisons plus the unit's
    wall time; failures are re-raised as :class:`ParallelWorkerError` so
    the parent knows which workload died and (via ``exc_type``) what
    kind of exception killed it.
    """
    from repro.experiments import _trace_cache
    from repro.workloads.trace import Trace

    config, workload, techniques, seed, preloaded, fault_plan = args
    installed = [key for key in preloaded if not _trace_cache.contains(*key)]
    for key in installed:
        _trace_cache.put(*key, Trace.from_shm(preloaded[key]))
    # Under the resilient harness's worker observation context (see
    # repro.obs.campaign) the unit runs with a fresh per-attempt metrics
    # registry and attributes its counters per technique -- the baseline
    # run is attributed explicitly so technique deltas measure only their
    # own simulation.  A direct call has no context and no attribution.
    obs = current_worker_obs()
    technique_span = (
        obs.technique_span if obs is not None else lambda _name: nullcontext()
    )
    try:
        start = time.perf_counter()
        runner = Runner(
            config,
            seed=seed,
            fault_plan=fault_plan,
            metrics=obs.registry if obs is not None else None,
        )
        with technique_span("baseline"):
            runner.baseline(workload)
        comparisons = []
        for technique in techniques:
            with technique_span(technique):
                comparisons.append(runner.compare(workload, technique))
        return comparisons, time.perf_counter() - start
    except ParallelWorkerError:
        raise
    except Exception as exc:
        raise ParallelWorkerError(
            workload, traceback.format_exc(), type(exc).__name__
        ) from None
    finally:
        for key in installed:
            _trace_cache.discard(*key)


# ----------------------------------------------------------------------
# Resilient sweep: timeouts, retries, degradation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FailedWorkload:
    """Manifest entry for a unit the sweep could not complete.

    ``telemetry`` records how much observability survived the final
    attempt: ``"partial"`` when the dying worker flushed a SIGTERM
    snapshot, ``"lost"`` when it died mute (hard crash).
    """

    workload: str
    attempts: int
    exc_type: str
    detail: str
    telemetry: str = "lost"


@dataclass(frozen=True)
class SkippedWorkload:
    """Manifest entry for a unit cancelled by a signal, not by failure.

    ``attempts`` counts the attempts consumed before cancellation (0 for
    never-started units).
    """

    workload: str
    attempts: int = 0


@dataclass
class SweepResult:
    """Outcome of :func:`resilient_sweep`.

    ``comparisons`` holds the surviving units keyed by technique, in
    workload order (the shape of one :meth:`Runner.compare_many` per
    technique); ``failed`` is the missing-workload manifest.
    ``degraded`` is True when at least one unit was abandoned -- the
    surviving results are still exact (each unit is independent), the
    sweep is just incomplete.  ``cached`` lists units served whole from
    the result cache, and the ``workers_*`` counters describe the worker
    pool's process economy (it spawns at most ``jobs`` plus one per
    crash/hang recycle).

    Campaign telemetry: ``timeline`` holds one record per attempt (and
    per cached unit) with wall-clock offsets relative to the
    sweep start, so a report can reconstruct the retry/backoff history;
    ``telemetry`` is the merged :class:`~repro.obs.campaign.
    CampaignAggregator` state (campaign counter/histogram totals,
    per-technique and per-unit rollups, and which units lost their
    telemetry); ``wall_s`` is the whole sweep's wall time.
    """

    comparisons: dict[str, list[RunComparison]]
    completed: list[str]
    failed: list[FailedWorkload] = field(default_factory=list)
    attempts: int = 0
    retries: int = 0
    cached: list[str] = field(default_factory=list)
    workers_spawned: int = 0
    workers_recycled: int = 0
    wall_s: float = 0.0
    timeline: list[dict[str, Any]] = field(default_factory=list)
    telemetry: dict[str, Any] = field(default_factory=dict)
    skipped: list[SkippedWorkload] = field(default_factory=list)
    #: Signal name (``"SIGTERM"``/``"SIGINT"``) when the campaign parent
    #: was interrupted and drained gracefully; ``None`` otherwise.
    interrupted: str | None = None

    @property
    def degraded(self) -> bool:
        return bool(self.failed or self.skipped)

    def manifest(self) -> dict[str, Any]:
        """JSON-able summary of what completed and what went missing."""
        return {
            "degraded": self.degraded,
            "completed": list(self.completed),
            "cached": list(self.cached),
            "attempts": self.attempts,
            "retries": self.retries,
            "workers_spawned": self.workers_spawned,
            "workers_recycled": self.workers_recycled,
            "wall_s": self.wall_s,
            "timeline": [dict(entry) for entry in self.timeline],
            "telemetry": dict(self.telemetry),
            "failed": [
                {
                    "workload": f.workload,
                    "attempts": f.attempts,
                    "exc_type": f.exc_type,
                    "detail": f.detail,
                    "telemetry": f.telemetry,
                }
                for f in self.failed
            ],
            "skipped": [
                {"workload": s.workload, "attempts": s.attempts}
                for s in self.skipped
            ],
            "interrupted": self.interrupted,
        }


@dataclass
class _Unit:
    """Parent-side bookkeeping for one (workload, all-techniques) unit."""

    index: int
    workload: str
    task: tuple | None = None  # set by ``prepare`` at first dispatch
    fingerprint: str = ""
    shm_keys: tuple = ()
    attempt: int = 0  # attempts already consumed
    last_telemetry: str = "lost"  # obs outcome of the latest attempt


def _telemetry_status(telemetry: Any) -> str:
    """Manifest label for an attempt's telemetry: ok / partial / lost."""
    if telemetry is None:
        return "lost"
    return "partial" if telemetry.get("partial") else "ok"


def _validate_unit_result(payload: Any) -> tuple[list[RunComparison], float] | None:
    """Reject results a broken/corrupting worker could have produced.

    Returns the validated ``(comparisons, wall_s)`` or ``None`` when the
    payload is not the expected shape (the harness then treats the
    attempt as a transient ``CorruptResult`` failure).
    """
    if not isinstance(payload, tuple) or len(payload) != 2:
        return None
    comparisons, wall_s = payload
    if not isinstance(comparisons, list) or not isinstance(
        wall_s, (int, float)
    ):
        return None
    if not all(isinstance(c, RunComparison) for c in comparisons):
        return None
    return comparisons, float(wall_s)


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


def resilient_sweep(
    config: SimConfig,
    workloads: Iterable[str],
    techniques: Sequence[str] = ("esteem", "rpv"),
    seed: int = 0,
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    checkpoint: str | os.PathLike | None = None,
    plan: FaultPlan | None = None,
    progress: bool | ProgressReporter = False,
    cache: ResultCache | None = None,
) -> SweepResult:
    """Run ``techniques`` on every workload, surviving hostile infrastructure.

    Each (workload, all-techniques) unit runs one attempt at a time in a
    worker process connected by a pipe, so the parent can enforce a
    per-attempt wall-clock ``timeout_s`` by terminating a hung worker --
    something a ``ProcessPoolExecutor`` cannot do to a running task.
    Attempts are dispatched to the persistent warm-worker pool and
    traces travel as zero-copy shared-memory handles; a terminated or
    crashed worker is recycled, every other worker stays warm.  Failed
    attempts are classified by exception type: transient ones
    (:data:`TRANSIENT_EXC_TYPES`: crashes, timeouts, corrupt results,
    broken pipes) are retried up to ``retries`` times with exponential
    backoff (``backoff_s * 2**(attempt-1)``); deterministic ones fail
    fast, because a unit that raised ``ValueError`` once will raise it
    on every retry.

    A unit's traces are generated and exported to shared memory when it
    is first dispatched, so the first workers start while the parent
    still owes later units their traces; retries reuse them, and they
    are unlinked when the unit settles.  Cached units never generate a
    trace.

    Determinism: a retried unit reproduces the original attempt bit for
    bit -- traces are functions of ``(profile, budget, seed)``, and the
    fault plan's Plane-1 RNG stream is keyed by ``(plan.seed, workload,
    technique)``, independent of the attempt number and of which worker
    process (warm or fresh) runs it.

    With ``cache`` set, units whose content fingerprint is already
    cached are returned without running, and fresh units are stored back
    on completion, so the same sweep again finishes what an interrupted
    one left.  With ``checkpoint`` set, every finished or cached unit is
    also appended to that :class:`~repro.experiments.checkpoint.
    SweepCheckpoint` log, which the sweep starts afresh.

    Instead of raising on a unit that exhausts its retries, the sweep
    degrades: surviving units are returned, the lost unit lands in the
    :class:`SweepResult` ``failed`` manifest, and ``degraded`` flips
    True.  Callers decide whether partial results are acceptable.

    Campaign telemetry: every worker attempt runs under a fresh
    per-attempt metrics registry and ships its snapshot back with the
    wire message -- including partial snapshots flushed on SIGTERM when the
    harness aborts a hung attempt.  Snapshots of *successful* attempts
    merge into the campaign totals (so the merged counters are exactly
    the sum of the per-unit truths); failed attempts keep their
    partial/lost status in the per-attempt ``timeline``.  Progress
    reporters receive live aggregate fields through
    ``reporter.status(...)`` (see
    :class:`~repro.obs.campaign.CampaignDashboard`).

    Supervision: a hung worker is bounded by ``timeout_s``, and a unit
    that keeps killing its workers by ``retries`` (at most ``retries +
    1`` attempts).  A signal is the one early stop.  SIGINT/SIGTERM on
    the parent (see :class:`ParentSignalWatch`) aborts running attempts
    and records every unfinished unit as ``skipped-interrupt`` in the
    result -- never silently dropped -- and the result's ``interrupted``
    carries the signal name so the CLI can exit with a distinct code.  A
    signal sent to the whole process group (``timeout``, ``kill -TERM
    -PGID``) also reaches the workers: they ignore SIGINT, and an attempt
    a SIGTERM aborts is cancelled the same way, never failed.
    """
    from repro.experiments.pool import SharedTraceStore, WorkerPool

    workload_list = list(workloads)
    if not workload_list:
        raise ValueError("need at least one workload")
    technique_tuple = tuple(techniques)
    if not technique_tuple:
        raise ValueError("need at least one technique")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError("timeout must be positive")
    if backoff_s < 0:
        raise ValueError("backoff must be non-negative")
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = min(jobs, len(workload_list))

    executor_obj = WorkerPool()

    ckpt = (
        SweepCheckpoint(
            checkpoint, sweep_fingerprint(config, technique_tuple, seed, plan)
        )
        if checkpoint is not None
        else None
    )

    if isinstance(progress, ProgressReporter):
        reporter = progress
        reporter.total = len(workload_list)
    else:
        reporter = ProgressReporter(
            len(workload_list), label="sweep", enabled=bool(progress)
        )

    sweep_start = time.monotonic()

    def rel_now() -> float:
        return time.monotonic() - sweep_start

    agg = CampaignAggregator()
    timeline: list[dict[str, Any]] = []

    def note(
        workload: str,
        attempt: int,
        outcome: str,
        exc_type: str,
        start_s: float,
        end_s: float,
        telemetry_status: str,
        in_flight: bool = False,
    ) -> None:
        entry = {
            "workload": workload,
            "attempt": attempt,
            "outcome": outcome,
            "exc_type": exc_type,
            "start_s": round(start_s, 6),
            "end_s": round(end_s, 6),
            "wall_s": round(end_s - start_s, 6),
            "telemetry": telemetry_status,
        }
        if in_flight:
            # The attempt was cancelled mid-run by a signal -- it
            # consumed an executor dispatch without reaching a terminal
            # outcome of its own.
            entry["in_flight"] = True
        timeline.append(entry)

    store = SharedTraceStore()
    results: list[list[RunComparison] | None] = [None] * len(workload_list)
    cached: list[str] = []
    skipped: list[SkippedWorkload] = []
    units: deque[_Unit] = deque()
    for i, w in enumerate(workload_list):
        unit_fp, hit = probe_unit(
            cache, config, w, technique_tuple, seed, plan
        )
        if hit is not None:
            results[i] = hit
            cached.append(w)
            if ckpt is not None:
                ckpt.record(hit)
            note(w, 0, "cached", "", rel_now(), rel_now(), "none")
            reporter.advance(f"{w} (cached)", 0.0)
            continue
        units.append(_Unit(index=i, workload=w, fingerprint=unit_fp))

    def prepare(unit: _Unit) -> None:
        """Generate and export the unit's traces at its first dispatch.

        The first call loads the simulator: in the parent, before the
        pool forks, so every worker starts with it imported.  A sweep
        served whole from the cache never loads it.
        """
        from repro.experiments import _trace_cache
        from repro.timing.system import System  # noqa: F401

        preloaded: dict[Any, Any] = {}
        try:
            for key, profile in _trace_needs_for(config, unit.workload, seed):
                trace = _trace_cache.get_trace(profile, key[1], key[2])
                preloaded[key] = store.acquire(key, trace)
        except Exception:
            # Unresolvable workload: ship nothing; the worker hits the
            # same error itself and reports it deterministically.
            for key in preloaded:
                store.release(key)
            preloaded = {}
        unit.task = (
            config, unit.workload, technique_tuple, seed, preloaded, plan
        )
        unit.shm_keys = tuple(preloaded)

    failed: list[FailedWorkload] = []
    total_attempts = 0
    total_retries = 0
    interrupted: str | None = None
    # conn -> (unit, deadline | None, started_at)
    running: dict[Any, tuple[_Unit, float | None, float]] = {}
    # (ready_time, unit) entries waiting out their backoff.
    backing_off: list[tuple[float, _Unit]] = []

    def push_status() -> None:
        reporter.status(
            running=len(running),
            failed=len(failed),
            retries=total_retries,
            recycled=executor_obj.workers_recycled,
            cached=len(cached),
            skipped=len(skipped),
            instructions=agg.counters.get("sim.instructions", 0.0),
            cache_hit_pct=100.0 * len(cached) / len(workload_list),
        )

    def settle(unit: _Unit) -> None:
        """Release the unit's shared segments once its fate is final."""
        for key in unit.shm_keys:
            store.release(key)

    def dispose(
        unit: _Unit, exc_type: str, detail: str, started_s: float
    ) -> None:
        """Retry or abandon a failed attempt, and note it."""
        nonlocal total_retries
        if exc_type in TRANSIENT_EXC_TYPES and unit.attempt <= retries:
            total_retries += 1
            delay = backoff_s * 2 ** (unit.attempt - 1)
            backing_off.append((time.monotonic() + delay, unit))
            outcome = "retry"
        else:
            failed.append(
                FailedWorkload(
                    workload=unit.workload,
                    attempts=unit.attempt,
                    exc_type=exc_type,
                    detail=detail,
                    telemetry=unit.last_telemetry,
                )
            )
            outcome = "failed"
        note(
            unit.workload, unit.attempt, outcome, exc_type,
            started_s, rel_now(), unit.last_telemetry,
        )
        if outcome != "retry":
            settle(unit)
            reporter.advance(f"{unit.workload} ({outcome.upper()})", 0.0)

    def retire(conn) -> tuple[_Unit, float]:
        """Abort an in-flight attempt: ``(unit, started_s)``."""
        unit, _deadline, started_s = running.pop(conn)
        # abort() SIGTERMs the worker and waits briefly for the partial
        # telemetry snapshot its abort handler flushes.
        salvage = executor_obj.abort(conn)
        unit.last_telemetry = _telemetry_status(
            telemetry_from_message(salvage)
        )
        return unit, started_s

    def cancel_remaining(cut: list[tuple[_Unit, float]]) -> None:
        """Fair cancellation: abort in-flight attempts, record every
        unfinished unit as ``skipped-interrupt`` -- never silently drop.

        ``cut`` holds the ``(unit, started_s)`` attempts a signal has
        already stopped.
        """
        # In-flight attempts carry their start time; queued and
        # backing-off units never started this attempt (``None``).
        cancelled: list[tuple[_Unit, float | None]] = list(cut)
        cancelled += [retire(conn) for conn in list(running)]
        cancelled += [(u, None) for u in units]
        cancelled += [(u, None) for _, u in backing_off]
        units.clear()
        backing_off.clear()
        for unit, started_s in cancelled:
            in_flight = started_s is not None
            skipped.append(SkippedWorkload(unit.workload, unit.attempt))
            note(
                unit.workload, unit.attempt, "skipped-interrupt", "",
                started_s if in_flight else rel_now(), rel_now(),
                unit.last_telemetry if in_flight else "none",
                in_flight=in_flight,
            )
            settle(unit)
            reporter.advance(f"{unit.workload} (SKIPPED)", 0.0)

    watch = ParentSignalWatch()
    try:
        with watch:
            while units or backing_off or running:
                # Graceful drain: handlers only set a flag, so a signal
                # can never land mid-write.
                if watch.signame is not None:
                    interrupted = watch.signame
                    cancel_remaining([])
                    break
                now = time.monotonic()
                units.extend(u for t, u in backing_off if t <= now)
                backing_off[:] = [(t, u) for t, u in backing_off if t > now]
                while units and len(running) < jobs:
                    unit = units.popleft()
                    if unit.task is None:  # retries reuse the prepared task
                        prepare(unit)
                    conn = executor_obj.start(unit.task, unit.attempt)
                    unit.attempt += 1
                    total_attempts += 1
                    # A fresh clock: trace preparation is not timed.
                    deadline = (
                        time.monotonic() + timeout_s
                        if timeout_s is not None
                        else None
                    )
                    running[conn] = (unit, deadline, rel_now())
                if not running:
                    if backing_off:
                        wake = min(t for t, _ in backing_off)
                        wait = min(wake - time.monotonic(), 0.25)
                        time.sleep(max(0.0, wait))
                    continue
                # Block until a worker reports, dies, or a deadline /
                # backoff expiry needs attention.  Capped at 250ms so the
                # interrupt flag is polled promptly (PEP 475 retries the
                # wait after a non-raising signal handler).
                deadlines = [
                    d for _, d, _s in running.values() if d is not None
                ]
                wake_times = deadlines + [t for t, _ in backing_off]
                wait_timeout = 0.25
                if wake_times:
                    wait_timeout = max(
                        0.0, min(min(wake_times) - time.monotonic(), 0.25)
                    )
                ready = pipe_wait(list(running), timeout=wait_timeout)
                cut: list[tuple[_Unit, float]] = []
                for conn in ready:
                    unit, _deadline, started_s = running.pop(conn)
                    message, exitcode = executor_obj.finish(conn)
                    telemetry = telemetry_from_message(message)
                    unit.last_telemetry = _telemetry_status(telemetry)
                    tag = message[0] if message is not None else None
                    if tag == "aborted" or (
                        tag != "ok" and watch.signame is not None
                    ):
                        # The parent's own aborts are consumed by
                        # WorkerPool.abort, so a signal sent to the
                        # whole process group stopped this attempt (or,
                        # once the parent is signalled, may have killed
                        # it before its handlers were installed): it is
                        # cancelled with the rest, never failed.
                        cut.append((unit, started_s))
                    elif message is None:
                        dispose(
                            unit,
                            "WorkerCrash",
                            f"worker exited without a result "
                            f"(exitcode={exitcode})",
                            started_s,
                        )
                    elif tag != "ok":
                        _tag, exc_type, detail, *_rest = message
                        dispose(unit, exc_type, detail, started_s)
                    elif (
                        validated := _validate_unit_result(message[1])
                    ) is None:
                        dispose(
                            unit,
                            "CorruptResult",
                            f"worker returned a malformed result: "
                            f"{type(message[1]).__name__}",
                            started_s,
                        )
                    else:
                        comparisons, wall_s = validated
                        results[unit.index] = comparisons
                        settle(unit)
                        if ckpt is not None:
                            ckpt.record(comparisons)
                        if cache is not None and unit.fingerprint:
                            cache.put(unit.fingerprint, comparisons)
                        # Only successful attempts feed the campaign
                        # totals: merged counters stay the exact sum of
                        # the units that produced results.
                        agg.add_unit(unit.workload, telemetry)
                        note(
                            unit.workload, unit.attempt, "ok", "",
                            started_s, rel_now(), unit.last_telemetry,
                        )
                        reporter.advance(unit.workload, wall_s)
                if cut:
                    interrupted = watch.signame or "SIGTERM"
                    cancel_remaining(cut)
                    break
                # Enforce wall-clock deadlines on whoever is still
                # running.
                now = time.monotonic()
                overdue = [
                    conn
                    for conn, (_u, deadline, _s) in running.items()
                    if deadline is not None and now >= deadline
                ]
                for conn in overdue:
                    unit, started_s = retire(conn)
                    dispose(
                        unit,
                        "TimeoutError",
                        f"attempt exceeded the {timeout_s:g}s wall-clock "
                        f"timeout and was terminated",
                        started_s,
                    )
                push_status()
    finally:
        try:
            for conn in list(running):
                executor_obj.abort(conn)
            executor_obj.close()
        finally:
            store.close()
    reporter.finish()

    out: dict[str, list[RunComparison]] = {t: [] for t in technique_tuple}
    completed: list[str] = []
    for w, per_workload in zip(workload_list, results):
        if per_workload is None:
            continue
        completed.append(w)
        for comparison in per_workload:
            out[comparison.technique].append(comparison)
    return SweepResult(
        comparisons=out,
        completed=completed,
        failed=failed,
        attempts=total_attempts,
        retries=total_retries,
        cached=cached,
        workers_spawned=executor_obj.workers_spawned,
        workers_recycled=executor_obj.workers_recycled,
        wall_s=rel_now(),
        timeline=timeline,
        telemetry=agg.as_dict(),
        skipped=skipped,
        interrupted=interrupted,
    )
