"""Profiling spans and sweep progress reporting.

:class:`Profiler` hands out context-manager *spans* that record wall and
CPU time for a named region (``System.run``, trace generation, one sweep
worker unit, ...).  A disabled profiler's span is a shared no-op, so call
sites can write ``with profiler.span("name"):`` unconditionally.

:class:`ProgressReporter` prints per-unit progress with an ETA to stderr
during multi-workload sweeps -- the visibility layer for
:func:`repro.experiments.parallel.resilient_sweep`, the one sweep path
(``repro sweep``, ``repro figure --jobs N`` and ``parallel_compare``).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, IO

__all__ = ["Profiler", "ProgressReporter", "Span", "format_seconds"]


@dataclass
class Span:
    """One timed region (open until :meth:`close` / context-exit)."""

    name: str
    meta: dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    _wall_start: float = field(default=0.0, repr=False)
    _cpu_start: float = field(default=0.0, repr=False)
    _profiler: "Profiler | None" = field(default=None, repr=False)
    closed: bool = False

    def __enter__(self) -> "Span":
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.wall_s = time.perf_counter() - self._wall_start
        self.cpu_s = time.process_time() - self._cpu_start
        self.closed = True
        if self._profiler is not None:
            self._profiler._record(self)


class _NullSpan:
    """Shared do-nothing span for disabled profilers."""

    __slots__ = ()
    name = "<disabled>"
    wall_s = 0.0
    cpu_s = 0.0
    closed = True

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def close(self) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Profiler:
    """Collects closed spans; disabled instances cost one attribute test."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []

    def span(self, name: str, **meta: Any) -> Span | _NullSpan:
        """A context manager timing the ``with`` body under ``name``."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(name=name, meta=meta, _profiler=self)

    def _record(self, span: Span) -> None:
        self.spans.append(span)

    def total_wall_s(self) -> float:
        return sum(s.wall_s for s in self.spans)

    def summary(self) -> str:
        """Per-span table: name, wall time, CPU time, CPU utilisation."""
        if not self.spans:
            return "profile: no spans recorded"
        width = max(len(s.name) for s in self.spans)
        lines = [f"{'span':<{width}}  {'wall':>9}  {'cpu':>9}  util"]
        for s in self.spans:
            util = s.cpu_s / s.wall_s if s.wall_s > 0 else 0.0
            lines.append(
                f"{s.name:<{width}}  {format_seconds(s.wall_s):>9}  "
                f"{format_seconds(s.cpu_s):>9}  {util:4.0%}"
            )
        return "\n".join(lines)

    def report(self, stream: IO[str] | None = None) -> None:
        print(self.summary(), file=stream if stream is not None else sys.stderr)


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
        :class:`~repro.obs.campaign.CampaignDashboard` renders them.
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
