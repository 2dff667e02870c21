"""Process-parallel experiment execution.

The figure/table sweeps are embarrassingly parallel across workloads: each
(workload, techniques) unit regenerates its traces, runs the baseline once,
and runs each technique against it.  This module fans those units out over
worker processes.

Granularity note: parallelism is per *workload*, not per (workload,
technique) -- the baseline run and the generated traces are shared between
techniques within a worker, which is the same sharing the sequential
:class:`~repro.experiments.runner.Runner` exploits.

One execution path: :func:`resilient_sweep` runs every parallel sweep
(``repro sweep`` directly, ``repro figure --jobs N`` through
:func:`parallel_compare`, its strict wrapper).  It dispatches units to
one of two engines (:mod:`repro.experiments.pool`), selected by
``use_pool``: a persistent pool of *warm* workers that amortise
interpreter start, module imports, trace state and memoised warm-L2
images across units, receive traces zero-copy as shared-memory handles,
and are recycled only on crash or hang; or, with ``use_pool=False``, one
fresh process per attempt (the bit-for-bit reference and throughput
baseline).  Both engines run the same timeout/retry/checkpoint/
degradation state machine in this module, so resilience semantics are
engine-independent.

Results can additionally be served from a content-addressed
:class:`~repro.experiments.result_cache.ResultCache`: units whose full
input fingerprint (profiles, budget, seed, techniques, config, fault
plan, engine version) matches a cached entry are returned bit-for-bit
without running at all.

Observability: with ``progress=True`` (or a custom
:class:`~repro.obs.profile.ProgressReporter`) each completed workload
prints a progress + ETA line to stderr; each worker times its own unit
with a profiling span and the wall time rides back with the results.
Worker failures surface as :class:`ParallelWorkerError` naming the failing
workload, with the worker-side traceback in the message -- not as a bare
unpicklable exception from a worker process.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait as pipe_wait
from typing import Any, Iterable, Sequence

from repro.config import SimConfig
from repro.experiments import _trace_cache
from repro.experiments.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.experiments.result_cache import ResultCache, probe_unit
from repro.experiments.runner import RunComparison, Runner, profiles_for
from repro.experiments.supervise import (
    DeadlineBudget,
    HeartbeatMonitor,
    ParentSignalWatch,
    QuarantineTracker,
    full_jitter_delay,
)
from repro.faults.plan import FaultPlan
from repro.obs.campaign import (
    CampaignAggregator,
    current_worker_obs,
    telemetry_from_message,
)
from repro.obs.profile import Profiler, ProgressReporter
from repro.workloads.trace import Trace, TraceShmHandle

__all__ = [
    "FailedWorkload",
    "ParallelWorkerError",
    "QuarantinedWorkload",
    "SkippedWorkload",
    "SweepResult",
    "TRANSIENT_EXC_TYPES",
    "parallel_compare",
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
        "HeartbeatLost",
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

    ``args`` is ``(config, workload, techniques, seed, preloaded)`` with
    an optional sixth element carrying a :class:`FaultPlan` whose
    hardware faults (Plane 1) are injected into every simulated system.

    ``preloaded`` carries the parent's already-generated traces for this
    workload, either as :class:`Trace` objects (the NumPy columns ride
    the pickle path; list/record caches are rebuilt lazily worker-side)
    or as :class:`TraceShmHandle` descriptors naming shared-memory
    segments the worker attaches zero-copy.  Either way the worker seeds
    its trace cache instead of regenerating; a handle whose trace is
    already cached (e.g. inherited across a fork, or installed by an
    earlier unit on a warm pool worker) is skipped so the warm copy and
    its materialised list views survive.  Returns the comparisons plus
    the unit's wall time; failures are re-raised as
    :class:`ParallelWorkerError` so the parent knows which workload died
    and (via ``exc_type``) what kind of exception killed it.
    """
    config, workload, techniques, seed, preloaded, *rest = args
    fault_plan: FaultPlan | None = rest[0] if rest else None
    for (name, budget, trace_seed), shipped in preloaded.items():
        if isinstance(shipped, TraceShmHandle):
            if _trace_cache.contains(name, budget, trace_seed):
                continue
            shipped = Trace.from_shm(shipped)
        _trace_cache.put(name, budget, trace_seed, shipped)
    profiler = Profiler()
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
        with profiler.span(f"worker:{workload}") as span:
            runner = Runner(
                config,
                seed=seed,
                fault_plan=fault_plan,
                metrics=obs.registry if obs is not None else None,
                tracer=obs.tracer if obs is not None else None,
            )
            with technique_span("baseline"):
                runner.baseline(workload)
            comparisons = []
            for technique in techniques:
                with technique_span(technique):
                    comparisons.append(runner.compare(workload, technique))
        return comparisons, span.wall_s
    except ParallelWorkerError:
        raise
    except Exception as exc:
        raise ParallelWorkerError(
            workload, traceback.format_exc(), type(exc).__name__
        ) from None


def parallel_compare(
    config: SimConfig,
    workloads: Iterable[str],
    techniques: Sequence[str] = ("esteem", "rpv"),
    seed: int = 0,
    jobs: int | None = None,
    progress: bool | ProgressReporter = False,
    cache: ResultCache | None = None,
) -> dict[str, list[RunComparison]]:
    """Run ``techniques`` on every workload, fanned out over processes.

    Returns comparisons keyed by technique, in workload order -- the same
    shape as running :meth:`Runner.compare_many` per technique, but using
    up to ``jobs`` worker processes (default: the machine's CPU count).
    Units found in ``cache`` are returned without running (bit-for-bit
    identical, see :mod:`repro.experiments.result_cache`); fresh units
    are stored back.

    ``progress=True`` prints one per-workload completion line with an ETA
    to stderr; pass a :class:`~repro.obs.profile.ProgressReporter` to
    control the stream/label (its ``total`` is overridden).

    This is :func:`resilient_sweep` in strict mode, without a checkpoint:
    once every unit has settled, the first failed unit in workload order
    raises :class:`ParallelWorkerError`.  Its siblings still finish and
    are cached first, so a rerun after fixing the failure pays only for
    the failed unit.  A SIGINT/SIGTERM drain raises ``KeyboardInterrupt``.
    """
    workload_list = list(workloads)
    result = resilient_sweep(
        config, workload_list, techniques, seed=seed, jobs=jobs,
        progress=progress, cache=cache,
    )
    if result.interrupted is not None:
        raise KeyboardInterrupt(result.interrupted)
    if result.failed:
        f = min(result.failed, key=lambda f: workload_list.index(f.workload))
        raise ParallelWorkerError(f.workload, f.detail, f.exc_type)
    return result.comparisons


# ----------------------------------------------------------------------
# Resilient sweep: timeouts, retries, checkpoint/resume, degradation
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
class QuarantinedWorkload:
    """Manifest entry for a poison unit pulled from the run queue.

    ``workers`` counts the *distinct* workers this unit's attempts took
    down before the quarantine threshold tripped; ``fingerprint`` is the
    unit's content fingerprint (result-cache scheme), or ``""`` when the
    unit could not be fingerprinted (keyed by workload name instead).
    """

    workload: str
    fingerprint: str
    attempts: int
    workers: int
    exc_type: str
    detail: str
    telemetry: str = "lost"


@dataclass(frozen=True)
class SkippedWorkload:
    """Manifest entry for a unit cancelled by supervision, not failure.

    ``reason`` is ``"deadline"`` (the campaign budget expired) or
    ``"interrupt"`` (the parent was signalled); ``attempts`` counts the
    attempts consumed before cancellation (0 for never-started units).
    Skips are recorded in the checkpoint too -- never silently dropped.
    """

    workload: str
    reason: str
    attempts: int = 0


@dataclass
class SweepResult:
    """Outcome of :func:`resilient_sweep`.

    ``comparisons`` holds the surviving units keyed by technique (the
    same shape :func:`parallel_compare` returns); ``failed`` is the
    missing-workload manifest.  ``degraded`` is True when at least one
    unit was abandoned -- the surviving results are still exact (each
    unit is independent), the sweep is just incomplete.  ``cached``
    lists units served whole from the result cache, and the
    ``workers_*`` counters describe the execution engine's process
    economy (a spawn-per-unit run spawns once per attempt; a pooled run
    spawns at most ``jobs`` plus one per crash/hang recycle).

    Campaign telemetry: ``timeline`` holds one record per attempt (and
    per cached/resumed unit) with wall-clock offsets relative to the
    sweep start, so a report can reconstruct the retry/backoff history;
    ``telemetry`` is the merged :class:`~repro.obs.campaign.
    CampaignAggregator` state (campaign counter/histogram totals,
    per-technique and per-unit rollups, and which units lost their
    telemetry); ``wall_s`` is the whole sweep's wall time.
    """

    comparisons: dict[str, list[RunComparison]]
    completed: list[str]
    failed: list[FailedWorkload] = field(default_factory=list)
    resumed: list[str] = field(default_factory=list)
    attempts: int = 0
    retries: int = 0
    cached: list[str] = field(default_factory=list)
    workers_spawned: int = 0
    workers_recycled: int = 0
    wall_s: float = 0.0
    timeline: list[dict[str, Any]] = field(default_factory=list)
    telemetry: dict[str, Any] = field(default_factory=dict)
    quarantined: list[QuarantinedWorkload] = field(default_factory=list)
    skipped: list[SkippedWorkload] = field(default_factory=list)
    #: Signal name (``"SIGTERM"``/``"SIGINT"``) when the campaign parent
    #: was interrupted and drained gracefully; ``None`` otherwise.
    interrupted: str | None = None
    #: Supervision configuration + observations (heartbeat interval,
    #: beats received, hung workers detected, deadline, executor name).
    supervision: dict[str, Any] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return bool(self.failed or self.quarantined or self.skipped)

    def manifest(self) -> dict[str, Any]:
        """JSON-able summary of what completed and what went missing."""
        return {
            "degraded": self.degraded,
            "completed": list(self.completed),
            "resumed": list(self.resumed),
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
            "quarantined": [
                {
                    "workload": q.workload,
                    "fingerprint": q.fingerprint,
                    "attempts": q.attempts,
                    "workers": q.workers,
                    "exc_type": q.exc_type,
                    "detail": q.detail,
                    "telemetry": q.telemetry,
                }
                for q in self.quarantined
            ],
            "skipped": [
                {
                    "workload": s.workload,
                    "reason": s.reason,
                    "attempts": s.attempts,
                }
                for s in self.skipped
            ],
            "interrupted": self.interrupted,
            "supervision": dict(self.supervision),
        }


@dataclass
class _Unit:
    """Parent-side bookkeeping for one (workload, all-techniques) unit."""

    index: int
    workload: str
    task: tuple
    fingerprint: str = ""
    shm_keys: tuple = ()
    attempt: int = 0  # attempts already consumed
    last_telemetry: str = "lost"  # obs outcome of the latest attempt


#: Sentinel for "the pipe yielded only heartbeats; the attempt is still
#: running" in the supervised receive loop.
_PENDING = object()


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
    resume: bool = False,
    plan: FaultPlan | None = None,
    progress: bool | ProgressReporter = False,
    cache: ResultCache | None = None,
    use_pool: bool = True,
    trace_events: int = 0,
    heartbeat_s: float | None = None,
    heartbeat_misses: float = 2.0,
    quarantine_after: int | None = None,
    deadline_s: float | None = None,
) -> SweepResult:
    """Run ``techniques`` on every workload, surviving hostile infrastructure.

    Each (workload, all-techniques) unit runs one attempt at a time in a
    worker process connected by a pipe, so the parent can enforce a
    per-attempt wall-clock ``timeout_s`` by terminating a hung worker --
    something a ``ProcessPoolExecutor`` cannot do to a running task.
    With ``use_pool=True`` (the default) attempts are dispatched to the
    persistent warm-worker engine and traces travel as zero-copy
    shared-memory handles; a terminated or crashed worker is recycled,
    every other worker stays warm.  ``use_pool=False`` spawns one
    process per attempt (the bit-for-bit reference engine and the
    throughput benchmark's baseline).  Failed attempts are classified by
    exception type: transient ones (:data:`TRANSIENT_EXC_TYPES`:
    crashes, timeouts, corrupt results, broken pipes) are retried up to
    ``retries`` times with exponential backoff
    (``backoff_s * 2**(attempt-1)``); deterministic ones fail fast,
    because a unit that raised ``ValueError`` once will raise it on
    every retry.

    Determinism: a retried unit reproduces the original attempt bit for
    bit -- traces are functions of ``(profile, budget, seed)``, and the
    fault plan's Plane-1 RNG stream is keyed by ``(plan.seed, workload,
    technique)``, independent of the attempt number and of which worker
    process (warm or fresh) runs it.

    With ``checkpoint`` set, every completed unit is persisted
    atomically; with ``resume=True`` units already in the checkpoint are
    skipped and their checkpointed comparisons returned (bit-for-bit
    equal to re-running them, see
    :mod:`repro.experiments.checkpoint`).  With ``cache`` set, units
    whose content fingerprint is already cached are returned without
    running (and recorded into the checkpoint, so a later ``--resume``
    agrees); fresh units are stored back on completion.

    Instead of raising on a unit that exhausts its retries, the sweep
    degrades: surviving units are returned, the lost unit lands in the
    :class:`SweepResult` ``failed`` manifest, and ``degraded`` flips
    True.  Callers decide whether partial results are acceptable.

    Campaign telemetry: every worker attempt runs under a fresh
    per-attempt metrics registry (plus a small tracer ring when
    ``trace_events`` > 0) and ships its snapshot back with the wire
    message -- including partial snapshots flushed on SIGTERM when the
    harness aborts a hung attempt.  Snapshots of *successful* attempts
    merge into the campaign totals (so the merged counters are exactly
    the sum of the per-unit truths); failed attempts keep their
    partial/lost status in the per-attempt ``timeline``.  Progress
    reporters receive live aggregate fields through
    ``reporter.status(...)`` (see
    :class:`~repro.obs.campaign.CampaignDashboard`).

    Supervision (all off by default; see
    :mod:`repro.experiments.supervise`): with ``heartbeat_s`` set,
    workers beat on their result pipes and a worker whose beats flatline
    is condemned as *hung* after ``heartbeat_misses`` missed intervals
    -- O(heartbeat interval) detection, retried as
    ``HeartbeatLost`` -- while a slow-but-alive worker that keeps beating
    runs to its ``timeout_s`` deadline.  With ``quarantine_after=N``, a
    unit whose attempts kill ``N`` *distinct* workers (crash / timeout /
    lost heartbeat) is quarantined out of the run queue as poison and
    reported in the manifest; a resumed campaign keeps it quarantined.
    With ``deadline_s`` set, the whole campaign gets a wall-clock budget:
    on expiry, running attempts are aborted and every unfinished unit is
    recorded as ``skipped-deadline`` -- never silently dropped.  SIGINT/
    SIGTERM on the parent triggers the same fair cancellation
    (``skipped-interrupt``) after flushing the checkpoint, and the
    result's ``interrupted`` carries the signal name so the CLI can exit
    with a distinct resumable code.  Retry backoff is seeded full jitter
    (uniform in ``[0, backoff_s * 2**(attempt-1))``, reproducible from
    ``seed``) so simultaneous transient failures do not retry in
    lockstep.
    """
    from repro.experiments.pool import (
        SharedTraceStore,
        SpawnExecutor,
        WorkerPool,
        _is_heartbeat,
    )

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
    if heartbeat_s is not None and heartbeat_s <= 0:
        raise ValueError("heartbeat interval must be positive")
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    jobs = min(jobs, len(workload_list))

    obs_spec: dict[str, Any] = {}
    if trace_events:
        obs_spec["trace_capacity"] = trace_events
    if heartbeat_s is not None:
        obs_spec["heartbeat_s"] = heartbeat_s
    executor_obj = (
        WorkerPool(jobs, obs_spec=obs_spec)
        if use_pool
        else SpawnExecutor(obs_spec=obs_spec)
    )

    hb = (
        HeartbeatMonitor(heartbeat_s, heartbeat_misses)
        if heartbeat_s is not None
        else None
    )
    quarantine = QuarantineTracker(quarantine_after)
    budget: DeadlineBudget | None = None

    ckpt: SweepCheckpoint | None = None
    if checkpoint is not None:
        fingerprint = sweep_fingerprint(
            config, technique_tuple, seed, plan
        )
        if resume:
            ckpt = SweepCheckpoint.load(checkpoint, fingerprint)
        else:
            ckpt = SweepCheckpoint(checkpoint, fingerprint)

    if isinstance(progress, ProgressReporter):
        reporter = progress
        reporter.total = len(workload_list)
    else:
        reporter = ProgressReporter(
            len(workload_list), label="sweep", enabled=bool(progress)
        )

    sweep_start = time.monotonic()
    if deadline_s is not None:
        budget = DeadlineBudget(deadline_s, start=sweep_start)

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
            # The attempt was cancelled mid-run (deadline/interrupt) --
            # it consumed an executor dispatch without reaching a
            # terminal outcome of its own.
            entry["in_flight"] = True
        timeline.append(entry)

    # Zero-copy shared-memory trace shipping only pays off for the warm
    # pool; the spawn engine ships traces through the task pickle.
    store = SharedTraceStore() if use_pool else None
    results: list[list[RunComparison] | None] = [None] * len(workload_list)
    resumed: list[str] = []
    cached: list[str] = []
    quarantined: list[QuarantinedWorkload] = []
    skipped: list[SkippedWorkload] = []
    units: deque[_Unit] = deque()
    for i, w in enumerate(workload_list):
        if ckpt is not None and ckpt.has_workload(w, technique_tuple):
            by_tech = {
                c.technique: c for c in ckpt.comparisons_for(w)
            }
            results[i] = [by_tech[t] for t in technique_tuple]
            resumed.append(w)
            note(w, 0, "resumed", "", rel_now(), rel_now(), "none")
            reporter.advance(w, 0.0)
            continue
        unit_fp, hit = probe_unit(
            cache, config, w, technique_tuple, seed, plan
        )
        if ckpt is not None and w in ckpt.quarantined_workloads:
            # A previous run of this campaign already condemned this
            # unit; a resume must not re-feed the poison to fresh
            # workers.  note_event is idempotent, so re-deriving the
            # verdict does not duplicate the checkpoint record.
            prior = next(
                (
                    e.get("detail", "")
                    for e in ckpt.events
                    if e.get("event") == "quarantined"
                    and e.get("workload") == w
                ),
                "",
            )
            quarantine.quarantine(unit_fp or w)
            quarantined.append(
                QuarantinedWorkload(
                    workload=w,
                    fingerprint=unit_fp,
                    attempts=0,
                    workers=0,
                    exc_type=prior or "WorkerCrash",
                    detail="quarantined by a previous run of this "
                    "campaign (resumed)",
                )
            )
            note(w, 0, "quarantined", prior, rel_now(), rel_now(), "none")
            reporter.advance(f"{w} (QUARANTINED)", 0.0)
            continue
        if hit is not None:
            results[i] = hit
            cached.append(w)
            if ckpt is not None:
                ckpt.record(hit)
            note(w, 0, "cached", "", rel_now(), rel_now(), "none")
            reporter.advance(f"{w} (cached)", 0.0)
            continue
        preloaded: dict[Any, Any] = {}
        shm_keys: list = []
        try:
            for key, profile in _trace_needs_for(config, w, seed):
                trace = _trace_cache.get_trace(profile, key[1], key[2])
                if store is not None:
                    preloaded[key] = store.acquire(key, trace)
                    shm_keys.append(key)
                else:
                    preloaded[key] = trace
        except Exception:
            # Unresolvable workload: ship nothing; the worker hits the
            # same error itself and reports it deterministically.
            if store is not None:
                for key in shm_keys:
                    store.release(key)
            preloaded, shm_keys = {}, []
        task = (config, w, technique_tuple, seed, preloaded, plan)
        units.append(
            _Unit(
                index=i,
                workload=w,
                task=task,
                fingerprint=unit_fp,
                shm_keys=tuple(shm_keys),
            )
        )

    failed: list[FailedWorkload] = []
    total_attempts = 0
    total_retries = 0
    hung_detected = 0
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
            quarantined=len(quarantined),
            skipped=len(skipped),
            hung=hung_detected,
            instructions=agg.counters.get("sim.instructions", 0.0),
            cache_hit_pct=100.0 * len(cached) / len(workload_list),
        )

    def settle(unit: _Unit) -> None:
        """Release the unit's shared segments once its fate is final."""
        if store is not None:
            for key in unit.shm_keys:
                store.release(key)

    def dispose(
        unit: _Unit, exc_type: str, detail: str, worker: int, started_s: float
    ) -> None:
        """Retry, quarantine, or abandon a failed attempt, and note it.

        Quarantine outranks both retry and abandon: a unit that has now
        killed ``quarantine_after`` distinct workers is poison regardless
        of remaining retry budget.
        """
        nonlocal total_retries
        key = unit.fingerprint or unit.workload
        quarantine.record_lethal(key, worker, exc_type)
        if (
            quarantine.should_quarantine(key)
            and key not in quarantine.quarantined
        ):
            quarantine.quarantine(key)
            quarantined.append(
                QuarantinedWorkload(
                    workload=unit.workload,
                    fingerprint=unit.fingerprint,
                    attempts=unit.attempt,
                    workers=quarantine.distinct_workers(key),
                    exc_type=exc_type,
                    detail=detail,
                    telemetry=unit.last_telemetry,
                )
            )
            if ckpt is not None:
                ckpt.note_event("quarantined", unit.workload, exc_type)
            outcome = "quarantined"
        elif exc_type in TRANSIENT_EXC_TYPES and unit.attempt <= retries:
            total_retries += 1
            delay = (
                full_jitter_delay(backoff_s, seed, unit.workload, unit.attempt)
                if backoff_s
                else 0.0
            )
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

    def retire(conn) -> tuple[_Unit, float, int]:
        """Abort an in-flight attempt: ``(unit, started_s, worker id)``."""
        unit, _deadline, started_s = running.pop(conn)
        if hb is not None:
            hb.forget(conn)
        # Worker identity must be read before abort() reaps the worker.
        wid = executor_obj.worker_id(conn)
        # abort() SIGTERMs the worker and waits briefly for the partial
        # telemetry snapshot its abort handler flushes.
        salvage = executor_obj.abort(conn)
        unit.last_telemetry = _telemetry_status(
            telemetry_from_message(salvage)
        )
        return unit, started_s, wid

    def cancel_remaining(reason: str) -> None:
        """Fair cancellation: abort in-flight attempts, record every
        unfinished unit as ``skipped-<reason>`` -- never silently drop."""
        # In-flight attempts carry their start time; queued and
        # backing-off units never started this attempt (``None``).
        cancelled = [retire(conn)[:2] for conn in list(running)]
        cancelled += [(u, None) for u in units]
        cancelled += [(u, None) for _, u in backing_off]
        units.clear()
        backing_off.clear()
        for unit, started_s in cancelled:
            in_flight = started_s is not None
            skipped.append(
                SkippedWorkload(unit.workload, reason, unit.attempt)
            )
            note(
                unit.workload, unit.attempt, f"skipped-{reason}", "",
                started_s if in_flight else rel_now(), rel_now(),
                unit.last_telemetry if in_flight else "none",
                in_flight=in_flight,
            )
            if ckpt is not None:
                ckpt.note_event(f"skipped-{reason}", unit.workload)
            settle(unit)
            reporter.advance(f"{unit.workload} (SKIPPED)", 0.0)

    watch = ParentSignalWatch()
    try:
        with watch:
            while units or backing_off or running:
                # Graceful drain: handlers only set a flag, so a signal
                # can never corrupt a checkpoint write mid-os.replace.
                if watch.signame is not None:
                    interrupted = watch.signame
                    cancel_remaining("interrupt")
                    break
                if budget is not None and budget.expired():
                    cancel_remaining("deadline")
                    break
                now = time.monotonic()
                if backing_off:
                    still_waiting = []
                    for ready_at, unit in backing_off:
                        if ready_at <= now:
                            units.append(unit)
                        else:
                            still_waiting.append((ready_at, unit))
                    backing_off[:] = still_waiting
                while units and len(running) < jobs:
                    unit = units.popleft()
                    conn = executor_obj.start(
                        unit.task, unit.workload, unit.attempt, plan
                    )
                    unit.attempt += 1
                    total_attempts += 1
                    deadline = (
                        now + timeout_s if timeout_s is not None else None
                    )
                    running[conn] = (unit, deadline, rel_now())
                    if hb is not None:
                        hb.track(conn)
                if not running:
                    if backing_off:
                        sleep_until = min(t for t, _ in backing_off)
                        time.sleep(
                            max(
                                0.0,
                                min(
                                    sleep_until - time.monotonic(), 0.25
                                ),
                            )
                        )
                    continue
                # Block until a worker reports, dies, or a deadline /
                # backoff / heartbeat-window / budget expiry needs
                # attention.  Capped at 250ms so the interrupt flag is
                # polled promptly (PEP 475 retries the wait after a
                # non-raising signal handler).
                deadlines = [
                    d for _, d, _s in running.values() if d is not None
                ]
                wake_times = deadlines + [t for t, _ in backing_off]
                if hb is not None:
                    next_check = hb.next_check()
                    if next_check is not None:
                        wake_times.append(next_check)
                if budget is not None:
                    wake_times.append(budget.expires_at)
                wait_timeout = 0.25
                if wake_times:
                    wait_timeout = max(
                        0.0, min(min(wake_times) - time.monotonic(), 0.25)
                    )
                ready = pipe_wait(list(running), timeout=wait_timeout)
                for conn in ready:
                    unit, _deadline, started_s = running[conn]
                    # Drain the pipe ourselves so heartbeats are seen:
                    # beats reset the liveness clock and are swallowed; a
                    # terminal message (or EOF) resolves the attempt.
                    terminal: Any = _PENDING
                    try:
                        while True:
                            received = conn.recv()
                            if _is_heartbeat(received):
                                if hb is not None:
                                    hb.beat(conn)
                                if conn.poll(0):
                                    continue
                                break
                            terminal = received
                            break
                    except (EOFError, OSError):
                        terminal = None
                    if terminal is _PENDING:
                        continue  # only beats arrived; still running
                    running.pop(conn)
                    if hb is not None:
                        hb.forget(conn)
                    # Worker identity must be read before finish(): a
                    # mute death reaps the worker and drops its id.
                    wid = executor_obj.worker_id(conn)
                    message, exitcode = executor_obj.finish(conn, terminal)
                    telemetry = telemetry_from_message(message)
                    unit.last_telemetry = _telemetry_status(telemetry)
                    if message is None:
                        dispose(
                            unit,
                            "WorkerCrash",
                            f"worker exited without a result "
                            f"(exitcode={exitcode})",
                            wid,
                            started_s,
                        )
                    elif message[0] != "ok":
                        _tag, exc_type, detail, *_rest = message
                        dispose(unit, exc_type, detail, wid, started_s)
                    elif (
                        validated := _validate_unit_result(message[1])
                    ) is None:
                        dispose(
                            unit,
                            "CorruptResult",
                            f"worker returned a malformed result: "
                            f"{type(message[1]).__name__}",
                            wid,
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
                # Enforce wall-clock deadlines on whoever is still
                # running.  A worker that is *beating* but slow lands
                # here -- slow-but-alive runs to its full deadline.
                now = time.monotonic()
                overdue = [
                    conn
                    for conn, (_u, deadline, _s) in running.items()
                    if deadline is not None and now >= deadline
                ]
                for conn in overdue:
                    unit, started_s, wid = retire(conn)
                    dispose(
                        unit,
                        "TimeoutError",
                        f"attempt exceeded the {timeout_s:g}s wall-clock "
                        f"timeout and was terminated",
                        wid,
                        started_s,
                    )
                # A worker whose beats flatlined is *hung*: condemned in
                # O(heartbeat window), not O(unit timeout).  Every conn
                # the monitor tracks is still running: each exit from
                # ``running`` forgets its conn.
                if hb is not None:
                    for conn in hb.overdue():
                        hung_detected += 1
                        unit, started_s, wid = retire(conn)
                        dispose(
                            unit,
                            "HeartbeatLost",
                            f"no heartbeat for more than "
                            f"{hb.window_s:g}s ({hb.interval_s:g}s "
                            f"interval x {hb.misses:g} misses); worker "
                            f"presumed hung and terminated",
                            wid,
                            started_s,
                        )
                push_status()
    finally:
        try:
            for conn in list(running):
                executor_obj.abort(conn)
            executor_obj.close()
        finally:
            if store is not None:
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
    supervision = {
        "executor": "pool" if use_pool else "spawn",
        "heartbeat_s": heartbeat_s,
        "heartbeat_misses": heartbeat_misses if heartbeat_s else None,
        "heartbeats_received": hb.beats_received if hb is not None else 0,
        "hung_detected": hung_detected,
        "deadline_s": deadline_s,
        "quarantine_after": quarantine_after,
    }
    return SweepResult(
        comparisons=out,
        completed=completed,
        failed=failed,
        resumed=resumed,
        attempts=total_attempts,
        retries=total_retries,
        cached=cached,
        workers_spawned=executor_obj.workers_spawned,
        workers_recycled=executor_obj.workers_recycled,
        wall_s=rel_now(),
        timeline=timeline,
        telemetry=agg.as_dict(),
        quarantined=quarantined,
        skipped=skipped,
        interrupted=interrupted,
        supervision=supervision,
    )
