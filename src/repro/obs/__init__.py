"""``repro.obs``: observability for the simulation stack (X12).

Three zero-dependency layers:

* :mod:`repro.obs.metrics` -- counters, gauges, fixed-bucket histograms in
  a :class:`~repro.obs.metrics.MetricsRegistry`;
* :mod:`repro.obs.trace` -- a structured event :class:`~repro.obs.trace.
  Tracer` with a bounded ring buffer and JSONL export, fed by the
  simulation loop (interval decisions, refresh bursts, reconfigurations,
  per-interval energy inputs, memory-queue stalls);
* :mod:`repro.obs.campaign` -- per-attempt worker telemetry, its
  campaign roll-up into the sweep manifest, and sweep progress/ETA
  reporting.

Both instruments are injected and off by default: ``System``, ``Runner``
and the parallel sweep take a tracer and a registry, and ``None`` (the
default) means off, at the cost of one ``is not None`` test per
instrumentation point.  Timings reach the user one way: worker
telemetry, rolled up by :class:`~repro.obs.campaign.CampaignAggregator`
into the manifest that ``repro report`` prints.
"""

from repro.obs.campaign import (
    CampaignAggregator,
    CampaignDashboard,
    ProgressReporter,
    WorkerAborted,
    WorkerObs,
    format_seconds,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    EVENT_FAULT_INJECT,
    EVENT_INTERVAL_DECISION,
    EVENT_INTERVAL_ENERGY,
    EVENT_MSHR_STALL,
    EVENT_RECONFIG_TRANSITION,
    EVENT_REFRESH_BURST,
    EVENT_SIM_END,
    EVENT_SIM_START,
    TraceEvent,
    Tracer,
)

__all__ = [
    "CampaignAggregator",
    "CampaignDashboard",
    "ProgressReporter",
    "WorkerAborted",
    "WorkerObs",
    "format_seconds",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
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
