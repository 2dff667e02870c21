"""Structured event tracing for the simulation stack.

The ESTEEM analysis (paper Section 6, e.g. the Figure 2 reconfiguration
timeline) is fundamentally a *trace* of the controller's interval
decisions.  :class:`Tracer` captures those decisions -- plus refresh
bursts, reconfiguration transitions, per-interval energy inputs, and
memory/writeback (MSHR-style) stalls -- as typed events in a bounded ring
buffer, exportable as JSONL or pretty text.

Event types (the ``type`` field of every event):

========================  =====================================================
``sim.start``             one per run: workload, technique, config headline
``sim.end``               one per run: totals (cycles, hits/misses, energy)
``interval.decision``     one per ESTEEM Algorithm-1 invocation (Figure 2 row)
``reconfig.transition``   one per reconfiguration that changed >= 1 module
``interval.energy``       one per closed interval: the EnergyBreakdown inputs
``refresh.burst``         one per refresh boundary that refreshed >= 1 line
``mshr.stall``            one per demand access delayed by the memory queue
``fault.inject``          one per injected eDRAM fault (see ``repro.faults``)
========================  =====================================================

Hot-path contract: tracing is off when the injected tracer is ``None``,
so the disabled cost is a single ``is not None`` test.
"""

from __future__ import annotations

import io
import json
from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass, field
from typing import Any, IO, Iterable, Iterator

__all__ = [
    "EVENT_FAULT_INJECT",
    "EVENT_INTERVAL_DECISION",
    "EVENT_INTERVAL_ENERGY",
    "EVENT_MSHR_STALL",
    "EVENT_RECONFIG_TRANSITION",
    "EVENT_REFRESH_BURST",
    "EVENT_SIM_END",
    "EVENT_SIM_START",
    "TraceEvent",
    "Tracer",
]

EVENT_SIM_START = "sim.start"
EVENT_SIM_END = "sim.end"
EVENT_INTERVAL_DECISION = "interval.decision"
EVENT_RECONFIG_TRANSITION = "reconfig.transition"
EVENT_INTERVAL_ENERGY = "interval.energy"
EVENT_REFRESH_BURST = "refresh.burst"
EVENT_MSHR_STALL = "mshr.stall"
EVENT_FAULT_INJECT = "fault.inject"


@dataclass(frozen=True)
class TraceEvent:
    """One structured event: a type, a simulation cycle, and a payload."""

    seq: int
    type: str
    cycle: float
    data: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "type": self.type,
            "cycle": self.cycle,
            "data": self.data,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        raw = json.loads(line)
        return cls(
            seq=raw["seq"],
            type=raw["type"],
            cycle=raw["cycle"],
            data=raw.get("data", {}),
        )


class Tracer:
    """Bounded in-memory event recorder.

    Parameters
    ----------
    capacity:
        Ring-buffer size; the oldest events are dropped once exceeded
        (``dropped`` counts how many).
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be at least 1")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._seq = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def emit(self, type: str, cycle: float, **data: Any) -> None:
        """Record one event (the payload is the keyword arguments)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(TraceEvent(self._seq, type, cycle, data))
        self._seq += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def emitted(self) -> int:
        """Total events ever emitted (buffered + dropped)."""
        return self._seq

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self, type: str | None = None) -> list[TraceEvent]:
        """All buffered events, optionally filtered by type."""
        if type is None:
            return list(self._events)
        return [e for e in self._events if e.type == type]

    def tally(self) -> dict[str, int]:
        """Event counts by type (diagnostics / summaries)."""
        return dict(_TallyCounter(e.type for e in self._events))

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """All events as JSON-Lines text (one object per line)."""
        return "\n".join(e.to_json() for e in self._events)

    def write_jsonl(self, destination: str | IO[str]) -> int:
        """Write the buffer as JSONL to a path or open file.

        Returns the number of events written.
        """
        if isinstance(destination, (str, bytes)):
            with open(destination, "w", encoding="utf-8") as fh:
                return self.write_jsonl(fh)
        count = 0
        for event in self._events:
            destination.write(event.to_json())
            destination.write("\n")
            count += 1
        return count

    def format_pretty(self) -> str:
        """Human-oriented one-line-per-event rendering."""
        out = io.StringIO()
        for e in self._events:
            payload = " ".join(
                f"{k}={_compact(v)}" for k, v in sorted(e.data.items())
            )
            out.write(f"[{e.seq:>6}] cycle={e.cycle:<12g} {e.type:<20} {payload}\n")
        if self.dropped:
            out.write(f"... {self.dropped} earlier events dropped "
                      f"(ring capacity {self.capacity})\n")
        return out.getvalue()

    @staticmethod
    def read_jsonl(lines: Iterable[str]) -> list[TraceEvent]:
        """Parse JSONL lines back into events (round-trip helper)."""
        return [TraceEvent.from_json(ln) for ln in lines if ln.strip()]


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_compact(v) for v in value) + "]"
    return str(value)
