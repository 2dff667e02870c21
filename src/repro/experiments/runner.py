"""Workload execution and baseline comparison (system S17).

:class:`Runner` owns a trace cache (traces are deterministic functions of
``(benchmark, instruction budget, seed)`` and are reused across techniques
and configurations so every comparison sees identical access streams) and
produces :class:`RunComparison` objects carrying the paper's metrics
(Section 6.4): % energy saving, weighted/fair speedup, RPKI decrease, MPKI
increase, and active ratio.

The comparisons, their aggregates and their JSON codecs import no NumPy;
:class:`Runner` imports the simulator and the trace cache where it
simulates, so decoding cached results loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.config import SimConfig
from repro.core.algorithm import IntervalDecision
from repro.energy.model import EnergyBreakdown
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.trace import Tracer, active_tracer
from repro.metrics.speedup import (
    arithmetic_mean,
    fair_speedup,
    geometric_mean,
    weighted_speedup,
)
from repro.timing.result import CoreResult, SystemResult
from repro.workloads.multiprog import get_mix
from repro.workloads.profiles import get_profile

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.trace import Trace

__all__ = [
    "AggregateResult",
    "RunComparison",
    "Runner",
    "aggregate",
    "comparison_from_dict",
    "comparison_to_dict",
    "profiles_for",
    "technique_rollup",
]


def profiles_for(config: SimConfig, workload: str):
    """The benchmark profiles a workload name resolves to under ``config``.

    Single-core configs take ``workload`` as a benchmark name/acronym;
    dual-core configs take a Table 1 mix acronym whose member profiles
    are returned in core order.  This is the single resolution point
    shared by trace generation, the parallel sweep's preload planning,
    and the result-cache fingerprint -- they must agree on which traces a
    unit consumes.
    """
    if config.num_cores == 1:
        return [get_profile(workload)]
    return list(get_mix(workload).profiles)


@dataclass(frozen=True)
class RunComparison:
    """One technique's run against the baseline run of the same workload."""

    workload: str
    technique: str
    result: SystemResult
    baseline: SystemResult

    @property
    def energy_saving_pct(self) -> float:
        """% memory-subsystem (L2 + MM) energy saved vs the baseline."""
        base = self.baseline.total_energy_j
        if base <= 0:
            return 0.0
        return (base - self.result.total_energy_j) / base * 100.0

    @property
    def weighted_speedup(self) -> float:
        """Eq. 9 relative performance."""
        return weighted_speedup(self.result.ipcs, self.baseline.ipcs)

    @property
    def fair_speedup(self) -> float:
        return fair_speedup(self.result.ipcs, self.baseline.ipcs)

    @property
    def rpki_decrease(self) -> float:
        """Absolute reduction in refreshes per kilo-instruction."""
        return self.baseline.rpki - self.result.rpki

    @property
    def mpki_increase(self) -> float:
        """Absolute increase in L2 MPKI caused by the technique."""
        return self.result.mpki - self.baseline.mpki

    @property
    def active_ratio_pct(self) -> float:
        """Mean active fraction of the cache, in percent."""
        return self.result.mean_active_fraction * 100.0


@dataclass(frozen=True)
class AggregateResult:
    """Workload-averaged metrics (Section 6.4 averaging rules)."""

    technique: str
    workloads: int
    energy_saving_pct: float
    weighted_speedup: float
    fair_speedup: float
    rpki_decrease: float
    mpki_increase: float
    active_ratio_pct: float


def aggregate(comparisons: Iterable[RunComparison]) -> AggregateResult:
    """Average comparisons: geomean for speedups, arithmetic otherwise."""
    comps = list(comparisons)
    if not comps:
        raise ValueError("nothing to aggregate")
    techniques = {c.technique for c in comps}
    if len(techniques) != 1:
        raise ValueError("aggregate one technique at a time")
    return AggregateResult(
        technique=comps[0].technique,
        workloads=len(comps),
        energy_saving_pct=arithmetic_mean([c.energy_saving_pct for c in comps]),
        weighted_speedup=geometric_mean([c.weighted_speedup for c in comps]),
        fair_speedup=geometric_mean([c.fair_speedup for c in comps]),
        rpki_decrease=arithmetic_mean([c.rpki_decrease for c in comps]),
        mpki_increase=arithmetic_mean([c.mpki_increase for c in comps]),
        active_ratio_pct=arithmetic_mean([c.active_ratio_pct for c in comps]),
    )


def technique_rollup(
    comparisons: Iterable[RunComparison],
) -> dict[str, dict[str, Any]]:
    """Per-technique manifest rows from a mixed-technique comparison list.

    Each row carries the paper's Section 6.4 aggregate metrics (via
    :func:`aggregate`) plus the energy/CPI totals the run manifest's
    report tables are built from.  Techniques are sorted so the output is
    deterministic for fingerprinting.
    """
    by_technique: dict[str, list[RunComparison]] = {}
    for comp in comparisons:
        by_technique.setdefault(comp.technique, []).append(comp)
    rollup: dict[str, dict[str, Any]] = {}
    for technique in sorted(by_technique):
        comps = by_technique[technique]
        agg = aggregate(comps)
        rollup[technique] = {
            "workloads": agg.workloads,
            "energy_saving_pct": agg.energy_saving_pct,
            "weighted_speedup": agg.weighted_speedup,
            "fair_speedup": agg.fair_speedup,
            "rpki_decrease": agg.rpki_decrease,
            "mpki_increase": agg.mpki_increase,
            "active_ratio_pct": agg.active_ratio_pct,
            "mean_cpi": arithmetic_mean([c.result.mean_cpi for c in comps]),
            "baseline_cpi": arithmetic_mean(
                [c.baseline.mean_cpi for c in comps]
            ),
            "total_energy_j": sum(c.result.total_energy_j for c in comps),
            "baseline_energy_j": sum(
                c.baseline.total_energy_j for c in comps
            ),
        }
    return rollup


# ----------------------------------------------------------------------
# Result serialisation
#
# RunComparison round-trips through plain JSON-able dicts so the result
# cache and the sweep checkpoint log can persist completed units.
# Python's json module prints floats with repr (shortest round-trip
# representation), so a serialised and re-loaded comparison is
# *bit-for-bit* equal to the original -- a unit served from the cache is
# exactly equivalent to running it again.  Tuples inside IntervalDecision
# become JSON lists and are restored on load.
# ----------------------------------------------------------------------


def _system_result_to_dict(r: "SystemResult") -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(r):
        value = getattr(r, f.name)
        if f.name == "cores":
            value = [
                {fld.name: getattr(c, fld.name) for fld in fields(CoreResult)}
                for c in r.cores
            ]
        elif f.name == "energy":
            value = {
                fld.name: getattr(value, fld.name)
                for fld in fields(EnergyBreakdown)
            }
        elif f.name == "timeline":
            value = [
                {
                    "interval_index": d.interval_index,
                    "cycle": d.cycle,
                    "n_active_way": list(d.n_active_way),
                    "non_lru": list(d.non_lru),
                    "active_fraction": d.active_fraction,
                    "transitions": d.transitions,
                    "flush_writebacks": d.flush_writebacks,
                    "clean_discards": d.clean_discards,
                }
                for d in value
            ]
        out[f.name] = value
    return out


def _system_result_from_dict(raw: Mapping[str, Any]) -> "SystemResult":
    kwargs = dict(raw)
    kwargs["cores"] = [CoreResult(**c) for c in raw["cores"]]
    kwargs["energy"] = EnergyBreakdown(**raw["energy"])
    kwargs["timeline"] = [
        IntervalDecision(
            interval_index=d["interval_index"],
            cycle=d["cycle"],
            n_active_way=tuple(d["n_active_way"]),
            non_lru=tuple(d["non_lru"]),
            active_fraction=d["active_fraction"],
            transitions=d["transitions"],
            flush_writebacks=d["flush_writebacks"],
            clean_discards=d["clean_discards"],
        )
        for d in raw.get("timeline", [])
    ]
    return SystemResult(**kwargs)


def comparison_to_dict(comp: RunComparison) -> dict[str, Any]:
    """Serialise a :class:`RunComparison` to a JSON-able dict."""
    return {
        "workload": comp.workload,
        "technique": comp.technique,
        "result": _system_result_to_dict(comp.result),
        "baseline": _system_result_to_dict(comp.baseline),
    }


def comparison_from_dict(raw: Mapping[str, Any]) -> RunComparison:
    """Restore a :class:`RunComparison` from :func:`comparison_to_dict`."""
    return RunComparison(
        workload=raw["workload"],
        technique=raw["technique"],
        result=_system_result_from_dict(raw["result"]),
        baseline=_system_result_from_dict(raw["baseline"]),
    )


class Runner:
    """Runs workloads under a configuration, reusing traces and baselines.

    Observability (all optional, no-op by default): an injected
    :class:`~repro.obs.trace.Tracer` records structured events from every
    simulated system, a :class:`~repro.obs.metrics.MetricsRegistry`
    accumulates run counters, and a :class:`~repro.obs.profile.Profiler`
    times each ``(workload, technique)`` run as a span.
    """

    def __init__(
        self,
        config: SimConfig | None = None,
        seed: int = 0,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        profiler: Profiler | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.config = config if config is not None else SimConfig.scaled()
        self.seed = seed
        #: Optional fault plan applied to every simulated system (Plane 1
        #: hardware faults; the sweep harness consumes Plane 2 itself).
        self.fault_plan = fault_plan
        self.tracer = active_tracer(tracer)
        self.metrics = (
            metrics if metrics is not None and metrics.enabled else None
        )
        self.profiler = (
            profiler if profiler is not None and profiler.enabled else None
        )
        # Baseline results are reused across techniques for one workload.
        self._baseline_cache: dict[str, SystemResult] = {}

    # ------------------------------------------------------------------
    # Trace handling
    # ------------------------------------------------------------------

    def traces_for(self, workload: str) -> list[Trace]:
        """Traces for a workload name.

        ``workload`` is a benchmark name/acronym for single-core configs or
        a Table 1 mix acronym (e.g. ``"GkNe"``) for dual-core configs.
        """
        from repro.experiments import _trace_cache

        budget = self.config.instructions_per_core
        return [
            _trace_cache.get_trace(p, budget, self.seed, profiler=self.profiler)
            for p in profiles_for(self.config, workload)
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, workload: str, technique: str) -> SystemResult:
        """Simulate one (workload, technique) pair."""
        from repro.timing.system import System

        traces = self.traces_for(workload)
        system = System(
            self.config,
            traces,
            technique,
            tracer=self.tracer,
            metrics=self.metrics,
            profiler=self.profiler,
            fault_plan=self.fault_plan,
        )
        return system.run()

    def baseline(self, workload: str) -> SystemResult:
        """Baseline run (cached per workload)."""
        cached = self._baseline_cache.get(workload)
        if cached is None:
            cached = self.run(workload, "baseline")
            self._baseline_cache[workload] = cached
        return cached

    def compare(self, workload: str, technique: str) -> RunComparison:
        """Run ``technique`` and compare it against the cached baseline."""
        return RunComparison(
            workload=workload,
            technique=technique,
            result=self.run(workload, technique),
            baseline=self.baseline(workload),
        )

    def compare_many(
        self, workloads: Iterable[str], technique: str
    ) -> list[RunComparison]:
        return [self.compare(w, technique) for w in workloads]
