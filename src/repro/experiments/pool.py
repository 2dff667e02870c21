"""Sweep execution engine: warm worker pool and shared-memory trace store.

The figure/table sweeps run many independent ``(workload, techniques)``
units.  PR 3's resilient harness paid a full process spawn per *attempt*:
interpreter fork, module import state, cold trace cache, cold warm-L2
image cache -- orchestration overhead that dominates short units.  This
module keeps those costs amortised:

* :class:`WorkerPool` -- a persistent pool of warm workers.  Each worker
  is a long-lived child process running :func:`_pool_worker_main`, a
  request/response loop over a duplex pipe.  Across units a worker keeps
  its imported modules, the traces it inherited across the fork, and the
  memoised warm-L2 images, so only the first unit a worker sees pays
  setup; the traces a unit attaches are dropped when it ends.  A
  worker is *recycled* (discarded and lazily replaced) only when it
  crashes (pipe EOF) or hangs (the harness aborts it at its per-attempt
  timeout); a unit that merely raises keeps its worker warm.
* :class:`SharedTraceStore` -- parent-side refcounted export of traces
  into named ``multiprocessing.shared_memory`` segments, so workers
  attach multi-million-record columns zero-copy instead of receiving a
  pickled copy per worker.  Segments are unlinked when their refcount
  drops to zero and unconditionally in :meth:`SharedTraceStore.close`,
  which the sweep calls in a ``finally`` -- a crashed or recycled worker
  can never leak ``/dev/shm`` entries, because workers never own
  segments.

:func:`~repro.experiments.parallel.resilient_sweep` -- the one sweep
path, which ``repro sweep``, ``repro figure`` and ``repro table`` run
on -- drives the pool through four calls: ``start()`` returns a pollable
connection, ``finish()`` receives the attempt's message (``None`` means
the worker died without reporting), ``abort()`` terminates a hung
attempt -- waiting briefly for the SIGTERM-flushed partial telemetry
message the worker's abort handler tries to send, and returning that
salvage (or ``None``) -- and ``close()`` tears everything down.  A
request is ``(task, attempt)`` (``None`` stops the worker); wire
messages carry a telemetry snapshot as their last element (see
:mod:`repro.obs.campaign`).  The harness's timeout/retry/cache
semantics live entirely in
:func:`repro.experiments.parallel.resilient_sweep`.
"""

from __future__ import annotations

import gc
import multiprocessing
import signal
import traceback
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Any

from repro.experiments.parallel import ParallelWorkerError, _workload_task
from repro.faults.chaos import ChaosWorkerProxy
from repro.obs.campaign import (
    WorkerAborted,
    begin_worker_obs,
    end_worker_obs,
    install_sigterm_flush,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.trace import Trace

__all__ = [
    "SharedTraceStore",
    "WorkerPool",
    "active_shm_segments",
    "created_shm_segments",
]


def _recv(conn) -> Any:
    """Receive the attempt's message; ``None`` when the worker died mute."""
    try:
        return conn.recv()
    except (EOFError, OSError):
        return None


def _drain_salvage(conn, timeout: float = 0.5) -> Any:
    """Poll briefly for an aborted worker's salvage message.

    ``None`` when nothing arrives in time (telemetry is then *lost*).
    """
    try:
        if not conn.poll(timeout):
            return None
    except (EOFError, OSError):
        return None
    return _recv(conn)


# ----------------------------------------------------------------------
# Shared-memory segment bookkeeping
#
# Every segment this process creates is recorded here so tests (and the
# CI smoke gate) can prove none outlive their sweep.  The *live* set
# holds names created but not yet unlinked; the *created* list is the
# full history.
# ----------------------------------------------------------------------

_LIVE_SEGMENTS: set[str] = set()
_CREATED_SEGMENTS: list[str] = []


def active_shm_segments() -> list[str]:
    """Names of shared segments this process created and has not unlinked.

    Empty after every well-behaved sweep; a non-empty result is a leak.
    """
    return sorted(_LIVE_SEGMENTS)


def created_shm_segments() -> list[str]:
    """All segment names this process ever created (leak-audit history)."""
    return list(_CREATED_SEGMENTS)


class SharedTraceStore:
    """Refcounted exporter of traces into shared-memory segments.

    The sweep parent acquires one reference per unit that ships a given
    trace (the 17 Table 1 mixes are pairwise disjoint, so a count exceeds
    one only when a trace key repeats within one sweep); the segment is
    unlinked when the last reference is released or, unconditionally, on
    :meth:`close`.  Attaching workers never unlink -- segment lifetime is
    owned entirely by this store, so a worker crash mid-unit cannot leak
    the segment.
    """

    def __init__(self) -> None:
        # key -> [shm, handle, refcount]
        self._entries: dict[Any, list] = {}

    def acquire(self, key: Any, trace: Trace):
        """Export ``trace`` (once) and take a reference; returns the handle."""
        entry = self._entries.get(key)
        if entry is None:
            shm, handle = trace.to_shm()
            _LIVE_SEGMENTS.add(handle.segment)
            _CREATED_SEGMENTS.append(handle.segment)
            entry = self._entries[key] = [shm, handle, 0]
        entry[2] += 1
        return entry[1]

    def release(self, key: Any) -> None:
        """Drop one reference; unlink the segment when none remain."""
        entry = self._entries.get(key)
        if entry is None:
            return
        entry[2] -= 1
        if entry[2] <= 0:
            self._destroy(key)

    def close(self) -> None:
        """Unlink every segment regardless of refcount (sweep ``finally``)."""
        for key in list(self._entries):
            self._destroy(key)

    def _destroy(self, key: Any) -> None:
        shm, handle, _refs = self._entries.pop(key)
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            _LIVE_SEGMENTS.discard(handle.segment)

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# Attempt execution (worker side)
# ----------------------------------------------------------------------


def _attempt_message(task: tuple, attempt: int) -> tuple:
    """Run one unit attempt; return the wire message, never raise.

    ``task`` is the :func:`~repro.experiments.parallel._workload_task`
    argument tuple; its workload and fault plan select the plan's
    Plane-2 chaos scripting: a scripted ``crash`` is an ``os._exit``
    inside the proxy and never returns (the parent sees the pipe close
    with no message, like a real segfault), ``hang`` sleeps past the
    per-attempt timeout, ``corrupt`` mangles the payload for parent-side
    validation to catch, ``raise`` surfaces as a deterministic error
    message.

    Every message carries the attempt's telemetry snapshot as its last
    element: ``("ok", payload, telemetry)`` on success, ``("error",
    exc_type, detail, telemetry)`` on failure, and ``("aborted",
    exc_type, detail, telemetry)`` when a SIGTERM stopped the attempt
    mid-flight -- the snapshot is then flagged *partial* and
    holds whatever the unit had flushed before dying.  Telemetry rides
    outside the validated result payload, so a chaos-corrupted result
    cannot corrupt its own telemetry.
    """
    _config, workload, _techniques, _seed, _preloaded, plan = task
    obs = begin_worker_obs()
    try:
        try:
            if plan is not None and plan.has_chaos():
                proxy = ChaosWorkerProxy(plan, workload, attempt)
                result = proxy(lambda: _workload_task(task))
            else:
                result = _workload_task(task)
            return ("ok", result, obs.snapshot(partial=False))
        except WorkerAborted as exc:
            return ("aborted", "WorkerAborted", str(exc), obs.snapshot(partial=True))
        except ParallelWorkerError as exc:
            return ("error", exc.exc_type, exc.detail, obs.snapshot(partial=True))
        except BaseException as exc:  # noqa: BLE001 -- must not die silently
            return (
                "error",
                type(exc).__name__,
                traceback.format_exc(),
                obs.snapshot(partial=True),
            )
    finally:
        end_worker_obs()


def _pool_worker_main(conn) -> None:
    """Warm worker request loop: serve unit attempts until told to stop.

    State deliberately persists across requests -- inherited traces,
    memoised warm-L2 images, and imported modules are the warmth the
    pool exists to amortise.  Each ``(task, attempt)`` request runs
    under a fresh observation context.  The loop exits on a ``None``
    request or when the parent end of the pipe disappears.
    """
    # A warm worker lives for the whole sweep with a large inherited heap
    # (modules, traces, materialised record views).  Freeze it out of the
    # cyclic collector: per-unit garbage still dies young, but full
    # collections stop rescanning -- and COW-unsharing -- objects that
    # live until exit anyway.
    gc.freeze()
    # A Ctrl-C reaches the whole foreground process group; only the
    # parent acts on it, by aborting the attempts it wants stopped.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # SIGTERM (the harness aborting a hung attempt, or a signal sent to
    # the whole process group) raises WorkerAborted so the in-flight
    # attempt can flush a final partial telemetry snapshot instead of
    # dying mute.
    install_sigterm_flush()
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            except WorkerAborted:
                break
            if request is None:
                break
            task, attempt = request
            message = _attempt_message(task, attempt)
            try:
                conn.send(message)
            except (BrokenPipeError, OSError, WorkerAborted):
                break
            if message[0] == "aborted":
                # This worker was told to stop; exit promptly so the
                # parent's reap join does not have to escalate.
                break
    except WorkerAborted:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------


class WorkerPool:
    """Persistent warm-worker executor.

    Workers are forked lazily (a ``start`` with no idle worker forks
    one, so the sweep's ``jobs`` concurrent attempts fork at most
    ``jobs``) and reused for every later attempt.  ``finish`` on a
    cleanly-reporting worker returns it to the idle list; a worker that
    died mid-attempt (crash) or was :meth:`abort`-ed (hang) is reaped and
    counted in ``workers_recycled`` -- its replacement forks lazily on
    the next ``start``, so recycling costs one spawn, not a pool
    rebuild.
    """

    def __init__(self) -> None:
        self._idle: list[tuple[Any, Any]] = []  # (conn, process)
        self._busy: dict[Any, Any] = {}  # conn -> process
        self._closed = False
        self.workers_spawned = 0
        self.workers_recycled = 0

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self) -> tuple[Any, Any]:
        # Before Python 3.13 a worker's attach registers the segment with
        # its resource tracker.  Running before the fork, that tracker is
        # the parent's, and the parent's unlink clears the registration.
        # A worker forked before the parent's first export would start a
        # tracker of its own, which unlinks the segment when the worker
        # exits -- under every other worker still attached to it.
        resource_tracker.ensure_running()
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        proc = multiprocessing.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()
        self.workers_spawned += 1
        return parent_conn, proc

    def _reap(self, conn, proc) -> None:
        """Discard a dead or condemned worker."""
        try:
            proc.join(timeout=1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        finally:
            try:
                conn.close()
            except OSError:
                pass
        self.workers_recycled += 1

    # -- executor protocol ---------------------------------------------

    def start(self, task: tuple, attempt: int):
        """Dispatch one attempt to a warm (or freshly forked) worker.

        Returns the pollable connection the attempt will report on.
        """
        request = (task, attempt)
        while True:
            if self._idle:
                conn, proc = self._idle.pop()
            else:
                conn, proc = self._spawn()
            try:
                conn.send(request)
            except (BrokenPipeError, OSError):
                # The idle worker died while parked; recycle and retry
                # with another (ultimately a fresh fork, which cannot
                # have a broken pipe at send time).
                self._reap(conn, proc)
                continue
            self._busy[conn] = proc
            return conn

    def finish(self, conn) -> tuple[Any, int | None]:
        """Receive an attempt's ``(message, exitcode)``.

        ``message is None`` means the worker died without reporting (it
        is reaped and counted recycled; ``exitcode`` carries its status).
        Otherwise the worker goes back to the idle list, still warm.
        """
        proc = self._busy.pop(conn)
        message = _recv(conn)
        if message is None:
            self._reap(conn, proc)
            return None, proc.exitcode
        self._idle.append((conn, proc))
        return message, None

    def abort(self, conn) -> Any:
        """Terminate a (presumed hung) attempt; the worker is recycled.

        The worker's SIGTERM handler gives the dying attempt a moment to
        flush a final partial telemetry message; ``abort`` waits briefly
        for that salvage and returns it
        (``None`` when nothing arrived -- the attempt's telemetry is
        then *lost*).
        """
        proc = self._busy.pop(conn)
        proc.terminate()
        salvage = _drain_salvage(conn)
        self._reap(conn, proc)
        return salvage

    def close(self) -> None:
        """Stop idle workers gracefully, kill busy ones, drop all pipes."""
        if self._closed:
            return
        self._closed = True
        for conn, proc in self._idle:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join()
            try:
                conn.close()
            except OSError:
                pass
        self._idle.clear()
        for conn, proc in self._busy.items():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
            try:
                conn.close()
            except OSError:
                pass
        self._busy.clear()
