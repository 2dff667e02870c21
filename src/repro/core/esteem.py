"""The interval-driven ESTEEM controller (system S13).

Ties the pieces together: at the end of every interval (10 M cycles at
paper scale) the controller reads the ATD histograms, runs Algorithm 1,
applies the way-count decisions through the reconfiguration controller,
flushes dirty lines to memory as posted writebacks, and accounts the
``N_L`` block transitions for the energy model (Eq. 8).

The optional ``max_way_delta`` damping implements the extension the paper
sketches as future work in Section 7.2 ("restricting the maximum number of
change in associativity in each interval").
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.config import EsteemConfig
from repro.core.algorithm import (
    AlgorithmDecision,
    IntervalDecision,
    esteem_decide,
)
from repro.core.atd import ATDProfiler
from repro.core.modules import ModuleMap
from repro.core.reconfig import ReconfigStats, ReconfigurationController
from repro.mem.dram import MainMemory
from repro.obs.trace import (
    EVENT_INTERVAL_DECISION,
    EVENT_RECONFIG_TRANSITION,
    Tracer,
)

__all__ = ["DROWSY_LEAK_FRACTION", "EsteemController", "IntervalDecision"]

#: Leakage of a drowsy (gated, data-retaining) line relative to an active
#: one, in Morishita et al.'s power-down data-retention mode (the paper's
#: citation [32]).
DROWSY_LEAK_FRACTION = 0.25


class EsteemController:
    """Runs Algorithm 1 every interval and reconfigures the cache.

    ``drowsy`` selects the gating mode: off (the paper's scheme) discards
    gated ways' contents; drowsy keeps them in a low-leakage retention
    state -- no flush on shrink, and hits in drowsy ways pay a wake-up.
    """

    def __init__(
        self,
        cache: SetAssociativeCache,
        config: EsteemConfig,
        memory: MainMemory | None = None,
        tracer: Tracer | None = None,
        drowsy: bool = False,
    ) -> None:
        config.validate_for_cache(cache.geometry)
        self.cache = cache
        self.config = config
        self.memory = memory
        #: Event tracer (``None`` when tracing is disabled).
        self.tracer = tracer
        self.module_map = ModuleMap(
            cache.num_sets, config.num_modules, config.sampling_ratio
        )
        self.profiler = ATDProfiler(cache, self.module_map)
        self.reconfig = ReconfigurationController(
            cache, self.module_map, drowsy=drowsy
        )
        #: Timeline of every interval decision (Figure 2 raw data).
        self.timeline: list[IntervalDecision] = []
        #: Optional :class:`~repro.faults.inject.FaultInjector` (set by the
        #: owning system when a fault plan is active) so interval-decision
        #: trace events carry the cumulative fault counts: reconfiguration
        #: decisions and injected faults can then be correlated on one
        #: timeline in ``repro trace`` output.
        self.fault_injector = None
        self._interval_index = 0

    # ------------------------------------------------------------------

    def on_interval_end(self, now_cycle: int, window: int = 0) -> IntervalDecision:
        """Run the energy-saving algorithm at an interval boundary."""
        cfg = self.config
        hist = self.profiler.snapshot()
        decision: AlgorithmDecision = esteem_decide(
            hist,
            a_min=cfg.a_min,
            alpha=cfg.alpha,
            associativity=self.cache.associativity,
            nonlru_guard=cfg.nonlru_guard,
        )
        wanted = list(decision.n_active_way)
        if cfg.max_way_delta > 0:
            # Future-work damping: cap how many ways may be *turned off*
            # per interval.  Only shrinks are limited -- they are the
            # expensive direction (each gated way flushes its lines), while
            # growing is free, so capping growth would only add churn.
            cur = self.reconfig.current
            for m in range(len(wanted)):
                lo = cur[m] - cfg.max_way_delta
                if wanted[m] < lo:
                    wanted[m] = lo

        stats: ReconfigStats = self.reconfig.apply(wanted, window)
        if self.memory is not None:
            for _addr in stats.writebacks:
                self.memory.write(now_cycle)

        record = IntervalDecision(
            interval_index=self._interval_index,
            cycle=now_cycle,
            n_active_way=tuple(wanted),
            non_lru=decision.non_lru,
            active_fraction=self.reconfig.active_fraction(),
            transitions=stats.transitions,
            flush_writebacks=len(stats.writebacks),
            clean_discards=stats.clean_discards,
        )
        self.timeline.append(record)
        tracer = self.tracer
        if tracer is not None:
            extra = {}
            injector = self.fault_injector
            if injector is not None:
                extra = {
                    "faults_injected": injector.injected,
                    "fault_data_loss": injector.data_loss,
                }
            tracer.emit(
                EVENT_INTERVAL_DECISION,
                now_cycle,
                interval=record.interval_index,
                n_active_way=list(record.n_active_way),
                non_lru=list(record.non_lru),
                active_fraction=record.active_fraction,
                transitions=record.transitions,
                flush_writebacks=record.flush_writebacks,
                clean_discards=record.clean_discards,
                **extra,
            )
            if stats.modules_changed:
                tracer.emit(
                    EVENT_RECONFIG_TRANSITION,
                    now_cycle,
                    interval=record.interval_index,
                    modules_changed=stats.modules_changed,
                    transitions=stats.transitions,
                    flush_writebacks=len(stats.writebacks),
                    clean_discards=stats.clean_discards,
                )
        self._interval_index += 1
        self.profiler.reset()
        return record

    # ------------------------------------------------------------------

    def active_fraction(self) -> float:
        """Current effective F_A (leader sets included).

        In drowsy mode, gated-but-valid lines keep leaking at
        :data:`DROWSY_LEAK_FRACTION`, so the effective leakage fraction is
        ``active + leak_fraction * drowsy_valid``.
        """
        base = self.reconfig.active_fraction()
        if not self.reconfig.drowsy:
            return base
        state = self.cache.state
        drowsy_valid = int((state.valid & ~state.active).sum())
        extra = DROWSY_LEAK_FRACTION * drowsy_valid / state.num_lines
        return min(1.0, base + extra)
