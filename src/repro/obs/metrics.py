"""Metrics registry: counters, gauges, and fixed-bucket histograms.

A deliberately tiny, zero-dependency metrics layer for the simulation
stack.  Instruments are created through a :class:`MetricsRegistry` and are
idempotent by name, so library code can write

    registry.counter("l2.hits").inc()

without caring whether the instrument already exists.  Code that records
metrics takes a registry parameter that defaults to ``None``, meaning
off: the caller injects a registry to observe, and the one metrics path
is a sweep worker's per-attempt registry (see :mod:`repro.obs.campaign`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram bucket upper bounds (powers of four, generic enough
#: for cycle counts, line counts, and second-scale timings alike).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0
)


class Counter:
    """Monotonically increasing counter."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "name": self.name, "value": self._value}


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = value

    def add(self, amount: float) -> None:
        self._value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "name": self.name, "value": self._value}


class Histogram:
    """Fixed-bucket histogram (cumulative export, Prometheus-style).

    ``buckets`` are the finite upper bounds; every observation also lands
    in the implicit ``+Inf`` bucket, so ``counts`` has ``len(buckets)+1``
    entries.
    """

    __slots__ = ("name", "help", "buckets", "counts", "total", "sum")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "name": self.name,
            "count": self.total,
            "sum": self.sum,
            "buckets": {
                **{str(b): c for b, c in zip(self.buckets, self.counts)},
                "+Inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Named instrument store; instrument creation is idempotent."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = factory()
                    self._instruments[name] = inst
        if not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {kind.__name__}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets, help), Histogram
        )

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All instruments as plain dictionaries, keyed by name."""
        return {
            name: inst.as_dict()
            for name, inst in sorted(self._instruments.items())
        }
