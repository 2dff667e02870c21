"""Campaign-level telemetry: worker snapshots, aggregation, and the live
sweep dashboard.

The observability layer is strictly per-process: metrics recorded
inside a sweep worker die with that worker.  This module is the bridge
that carries them home and rolls them up:

* **Worker side** -- :func:`begin_worker_obs` installs a
  :class:`WorkerObs` context for one unit attempt: a fresh
  :class:`~repro.obs.metrics.MetricsRegistry` (so per-attempt counters
  are exact deltas, and campaign totals are exact sums of per-unit
  truths) and per-technique counter/wall-time attribution via
  :meth:`WorkerObs.technique_span`.  :meth:`WorkerObs.snapshot` is the
  picklable ``WorkerTelemetry`` payload that rides the executor wire
  protocol -- it is O(#instruments), never O(records), so shipping it
  costs microseconds even after multi-million-record units.
* **Abort path** -- :func:`install_sigterm_flush` rebinds SIGTERM to
  raise :class:`WorkerAborted` (a ``BaseException``, so it pierces the
  unit's ``except Exception`` handlers), letting a worker that the
  harness terminates at its per-attempt timeout flush its last partial
  snapshot before dying.  A worker that could not flush (hard crash,
  ``os._exit``) is recorded as ``telemetry: "lost"`` in the manifest.
* **Parent side** -- :class:`CampaignAggregator` folds snapshots in:
  counters add, histograms add bucket-wise (so the totals do not depend
  on the order units complete in, and an empty snapshot changes
  nothing), gauges are kept per-unit only (a "last write wins" value has
  no meaningful sum).
* **Display** -- :class:`ProgressReporter` prints per-unit progress with
  an ETA to stderr during a sweep; :class:`CampaignDashboard` is a
  :class:`ProgressReporter` that renders the campaign live on a TTY
  (units done/running/failed, aggregate simulation rate, cache-hit
  ratio, worker recycles, ETA) and degrades to the classic line-per-unit
  reporter on non-interactive streams.
"""

from __future__ import annotations

import signal
import sys
import time
from contextlib import contextmanager
from typing import IO, Any, Iterator, Mapping

from repro.obs.metrics import Counter, MetricsRegistry

__all__ = [
    "CampaignAggregator",
    "CampaignDashboard",
    "ProgressReporter",
    "TELEMETRY_VERSION",
    "WorkerAborted",
    "WorkerObs",
    "begin_worker_obs",
    "current_worker_obs",
    "end_worker_obs",
    "format_seconds",
    "install_sigterm_flush",
    "is_telemetry",
    "merge_counter_maps",
    "merge_histogram_states",
    "telemetry_from_message",
]

#: Version stamp carried by every worker snapshot so a parent can reject
#: payloads produced by an incompatible worker build.
TELEMETRY_VERSION = 1


class WorkerAborted(BaseException):
    """Raised in a worker when the harness terminates it (SIGTERM).

    Deliberately a ``BaseException``: the unit code's ``except
    Exception`` error folding must not swallow an abort -- it has to
    reach the attempt loop, which flushes a final partial telemetry
    snapshot and exits.
    """


def _raise_worker_aborted(signum, frame):  # pragma: no cover - signal path
    raise WorkerAborted(f"terminated by signal {signum}")


def install_sigterm_flush() -> bool:
    """Rebind SIGTERM to raise :class:`WorkerAborted`; True on success.

    Only the main thread of a process may set signal handlers; callers
    in exotic contexts get ``False`` and simply keep the default
    die-immediately behaviour (telemetry is then lost, which the parent
    already tolerates).
    """
    try:
        signal.signal(signal.SIGTERM, _raise_worker_aborted)
        return True
    except (ValueError, OSError):
        return False


# ----------------------------------------------------------------------
# Worker-side observation context
# ----------------------------------------------------------------------

_ACTIVE_OBS: "WorkerObs | None" = None


class WorkerObs:
    """Per-attempt observation context inside a sweep worker.

    A fresh registry per attempt keeps unit telemetry additive: the
    campaign-level counter totals are exactly the sum of the per-unit
    snapshots, with no double counting across retries or warm-worker
    reuse.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        #: technique -> {"wall_s": float, "counters": {name: delta}}
        self.per_technique: dict[str, dict[str, Any]] = {}

    def _counter_values(self) -> dict[str, float]:
        return {
            name: inst.value
            for name, inst in self.registry._instruments.items()
            if isinstance(inst, Counter)
        }

    @contextmanager
    def technique_span(self, technique: str) -> Iterator[None]:
        """Attribute counter deltas and wall time of the body to a technique."""
        before = self._counter_values()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            after = self._counter_values()
            entry = self.per_technique.setdefault(
                technique, {"wall_s": 0.0, "counters": {}}
            )
            entry["wall_s"] += wall
            counters = entry["counters"]
            for name, value in after.items():
                delta = value - before.get(name, 0.0)
                if delta:
                    counters[name] = counters.get(name, 0.0) + delta

    def snapshot(self, partial: bool = False) -> dict[str, Any]:
        """The picklable ``WorkerTelemetry`` payload for the wire.

        O(#instruments): it walks the registry's instrument table, never
        anything proportional to the number of simulated records.
        """
        return {
            "v": TELEMETRY_VERSION,
            "partial": bool(partial),
            "metrics": self.registry.snapshot(),
            "per_technique": {
                name: {
                    "wall_s": entry["wall_s"],
                    "counters": dict(entry["counters"]),
                }
                for name, entry in self.per_technique.items()
            },
        }


def begin_worker_obs() -> WorkerObs:
    """Install (and return) a fresh observation context for one attempt."""
    global _ACTIVE_OBS
    _ACTIVE_OBS = WorkerObs()
    return _ACTIVE_OBS


def current_worker_obs() -> WorkerObs | None:
    """The attempt's observation context, if one is installed."""
    return _ACTIVE_OBS


def end_worker_obs() -> None:
    """Drop the attempt's observation context."""
    global _ACTIVE_OBS
    _ACTIVE_OBS = None


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------


def is_telemetry(payload: Any) -> bool:
    """Whether ``payload`` looks like a current-version worker snapshot."""
    return (
        isinstance(payload, dict)
        and payload.get("v") == TELEMETRY_VERSION
        and isinstance(payload.get("metrics"), dict)
        and isinstance(payload.get("partial"), bool)
    )


def telemetry_from_message(message: Any) -> dict[str, Any] | None:
    """Extract the telemetry payload from an executor wire message.

    Messages are ``("ok", payload, telemetry)`` or ``("error"|"aborted",
    exc_type, detail, telemetry)``; anything else (including the old
    telemetry-less shapes and ``None`` for a crashed worker) yields
    ``None``.  The telemetry rides *outside* the validated result
    payload, so a chaos-corrupted result does not corrupt its telemetry.
    """
    if not isinstance(message, tuple) or len(message) < 3:
        return None
    if message[0] == "ok":
        candidate = message[2]
    elif message[0] in ("error", "aborted") and len(message) >= 4:
        candidate = message[3]
    else:
        return None
    return candidate if is_telemetry(candidate) else None


# ----------------------------------------------------------------------
# Mergeable counter/histogram semantics
# ----------------------------------------------------------------------


def merge_counter_maps(
    a: Mapping[str, float], b: Mapping[str, float]
) -> dict[str, float]:
    """Key-wise sum of two counter maps (missing keys are zero)."""
    out = dict(a)
    for name, value in b.items():
        out[name] = out.get(name, 0.0) + value
    return out


def merge_histogram_states(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, Any]:
    """Merge two histogram states: counts, sums and buckets all add.

    States are ``{"count": int, "sum": float, "buckets": {bound: n}}``;
    bucket keys are the stringified upper bounds plus ``"+Inf"``, so two
    histograms of the same instrument merge losslessly and histograms
    with different bucket layouts still merge by bound.
    """
    buckets = dict(a.get("buckets", {}))
    for bound, count in b.get("buckets", {}).items():
        buckets[bound] = buckets.get(bound, 0) + count
    return {
        "count": a.get("count", 0) + b.get("count", 0),
        "sum": a.get("sum", 0.0) + b.get("sum", 0.0),
        "buckets": buckets,
    }


def _split_metrics(
    metrics: Mapping[str, Mapping[str, Any]],
) -> tuple[dict[str, float], dict[str, float], dict[str, dict[str, Any]]]:
    """Partition a registry snapshot into (counters, gauges, histograms)."""
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict[str, Any]] = {}
    for name, inst in metrics.items():
        kind = inst.get("type")
        if kind == "counter":
            counters[name] = float(inst.get("value", 0.0))
        elif kind == "gauge":
            gauges[name] = float(inst.get("value", 0.0))
        elif kind == "histogram":
            histograms[name] = {
                "count": int(inst.get("count", 0)),
                "sum": float(inst.get("sum", 0.0)),
                "buckets": dict(inst.get("buckets", {})),
            }
    return counters, gauges, histograms


def _merge_technique_maps(
    a: Mapping[str, Mapping[str, Any]], b: Mapping[str, Mapping[str, Any]]
) -> dict[str, dict[str, Any]]:
    out = {
        name: {"wall_s": e["wall_s"], "counters": dict(e["counters"])}
        for name, e in a.items()
    }
    for name, entry in b.items():
        existing = out.setdefault(name, {"wall_s": 0.0, "counters": {}})
        existing["wall_s"] += entry["wall_s"]
        existing["counters"] = merge_counter_maps(
            existing["counters"], entry["counters"]
        )
    return out


class CampaignAggregator:
    """Campaign rollup of per-unit worker snapshots.

    ``add_unit`` folds one unit's snapshot in.  Pool workers complete
    units in no fixed order, so the fold is order-independent for
    integer-valued counters and histograms (floating counters up to IEEE
    rounding) -- the property the aggregator tests pin down.  Gauges are
    deliberately *not* merged into campaign totals (last-write-wins
    values have no meaningful cross-process sum); they stay visible in
    the per-unit section.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, dict[str, Any]] = {}
        self.per_unit: dict[str, dict[str, Any]] = {}
        self.per_technique: dict[str, dict[str, Any]] = {}
        self.lost: list[str] = []
        self.units_merged = 0

    # -- accumulation ---------------------------------------------------

    def add_unit(self, unit: str, telemetry: Any) -> bool:
        """Fold one unit's snapshot in; False (and ``lost``) if absent."""
        if not is_telemetry(telemetry):
            if unit not in self.lost:
                self.lost.append(unit)
            return False
        counters, gauges, histograms = _split_metrics(telemetry["metrics"])
        per_technique = telemetry.get("per_technique", {})
        entry: dict[str, Any] = {
            "partial": telemetry["partial"],
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "per_technique": {
                name: {"wall_s": e["wall_s"], "counters": dict(e["counters"])}
                for name, e in per_technique.items()
            },
        }
        self.per_unit[unit] = entry
        self.counters = merge_counter_maps(self.counters, counters)
        for name, state in histograms.items():
            self.histograms[name] = merge_histogram_states(
                self.histograms.get(name, {}), state
            )
        self.per_technique = _merge_technique_maps(
            self.per_technique, per_technique
        )
        self.units_merged += 1
        return True

    # -- rollups --------------------------------------------------------

    def rollup(self) -> dict[str, Any]:
        """Headline campaign statistics derived from the merged counters."""
        c = self.counters
        records = c.get("l2.hits", 0.0) + c.get("l2.misses", 0.0)
        batch = c.get("kernel.batch_records", 0.0)
        scalar = c.get("kernel.scalar_records", 0.0)
        kernel_total = batch + scalar
        return {
            "units_merged": self.units_merged,
            "runs": c.get("sim.runs", 0.0),
            "instructions": c.get("sim.instructions", 0.0),
            "records": records,
            "l2_hit_rate": c.get("l2.hits", 0.0) / records if records else 0.0,
            "kernel_batch_share": batch / kernel_total if kernel_total else 0.0,
            "refresh_lines": c.get("refresh.lines", 0.0),
            "faults": {
                name.split(".", 1)[1]: value
                for name, value in sorted(c.items())
                if name.startswith("faults.")
            },
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (the manifest's ``telemetry`` section)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "histograms": {
                k: self.histograms[k] for k in sorted(self.histograms)
            },
            "per_technique": {
                k: self.per_technique[k] for k in sorted(self.per_technique)
            },
            "per_unit": {k: self.per_unit[k] for k in sorted(self.per_unit)},
            "lost": list(self.lost),
            "rollup": self.rollup(),
        }


# ----------------------------------------------------------------------
# Progress reporting and the live dashboard
# ----------------------------------------------------------------------


class ProgressReporter:
    """Per-unit progress + ETA lines on stderr for long sweeps.

    Parameters
    ----------
    total:
        Number of units expected.
    label:
        Sweep name used as the line prefix.
    stream:
        Output stream (stderr by default).
    enabled:
        When False every method is a no-op.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        stream: IO[str] | None = None,
        enabled: bool = True,
    ) -> None:
        if total < 0:
            raise ValueError("total must be non-negative")
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.done = 0
        self._start = time.perf_counter()

    def status(self, **fields: Any) -> None:
        """Campaign-level status update hook (no-op here).

        The resilient sweep pushes live aggregate fields (units running,
        failures, retries, worker recycles, simulated instructions,
        cache-hit ratio) through this seam;
        :class:`CampaignDashboard` renders them.
        """

    def advance(self, unit: str, seconds: float | None = None) -> None:
        """Mark one unit finished and print progress + ETA."""
        self.done += 1
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self._start
        remaining = max(self.total - self.done, 0)
        eta = elapsed / self.done * remaining if self.done else 0.0
        took = f" in {format_seconds(seconds)}" if seconds is not None else ""
        print(
            f"{self.label}: [{self.done}/{self.total}] {unit} done{took}, "
            f"elapsed {format_seconds(elapsed)}, ETA {format_seconds(eta)}",
            file=self.stream,
            flush=True,
        )

    def finish(self) -> None:
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self._start
        print(
            f"{self.label}: finished {self.done}/{self.total} units "
            f"in {format_seconds(elapsed)}",
            file=self.stream,
            flush=True,
        )


def format_seconds(seconds: float) -> str:
    """Human-compact duration: ``950ms``, ``12.3s``, ``4m10s``."""
    if seconds < 0:
        return "-" + format_seconds(-seconds)
    if seconds < 1.0:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 60.0:
        return f"{seconds:.2f}s"
    minutes, secs = divmod(seconds, 60.0)
    if minutes < 60:
        return f"{int(minutes)}m{secs:02.0f}s"
    hours, minutes = divmod(int(minutes), 60)
    return f"{hours}h{minutes:02d}m"


class CampaignDashboard(ProgressReporter):
    """Live single-line sweep dashboard behind the ProgressReporter seam.

    On a TTY the dashboard repaints one status line in place on every
    unit completion and :meth:`status` update::

        sweep 12/34 run 4 fail 1 retry 3 | 83.2 Minstr/s | cache 28% | \
recycled 1 | ETA 1m40s

    On a non-interactive stream (CI logs, pipes) it behaves exactly like
    the classic line-per-unit reporter, so existing log consumers see no
    change.  ``live`` forces the mode either way.
    """

    def __init__(
        self,
        total: int = 0,
        label: str = "sweep",
        stream=None,
        enabled: bool = True,
        live: bool | None = None,
    ) -> None:
        super().__init__(total, label, stream=stream, enabled=enabled)
        if live is None:
            isatty = getattr(self.stream, "isatty", None)
            live = bool(isatty()) if callable(isatty) else False
        self.live = live
        self.running = 0
        self.failed = 0
        self.retries = 0
        self.recycled = 0
        self.cached = 0
        self.skipped = 0
        self.instructions = 0.0
        self.cache_hit_pct: float | None = None
        self._last_width = 0

    def status(self, **fields: Any) -> None:
        """Update campaign-level gauges (and repaint when live)."""
        for name, value in fields.items():
            if hasattr(self, name):
                setattr(self, name, value)
        if self.enabled and self.live:
            self._render()

    def advance(self, unit: str, seconds: float | None = None) -> None:
        if not self.live:
            super().advance(unit, seconds)
            return
        self.done += 1
        if self.enabled:
            self._render()

    def finish(self) -> None:
        if self.enabled and self.live:
            self._render()
            self.stream.write("\n")
            self.stream.flush()
        super().finish()

    def _render(self) -> None:
        elapsed = time.perf_counter() - self._start
        remaining = max(self.total - self.done, 0)
        eta = elapsed / self.done * remaining if self.done else 0.0
        rate = self.instructions / elapsed / 1e6 if elapsed > 0 else 0.0
        parts = [
            f"{self.label} {self.done}/{self.total}",
            f"run {self.running} fail {self.failed} retry {self.retries}",
            f"{rate:.1f} Minstr/s",
        ]
        if self.cache_hit_pct is not None:
            parts.append(f"cache {self.cache_hit_pct:.0f}%")
        if self.skipped:
            parts.append(f"skip {self.skipped}")
        parts.append(f"recycled {self.recycled}")
        parts.append(f"ETA {format_seconds(eta)}")
        line = " | ".join(parts)
        pad = max(self._last_width - len(line), 0)
        self._last_width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
