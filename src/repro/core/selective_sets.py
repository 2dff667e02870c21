"""Selective-sets reconfiguration: the alternative ESTEEM argues against.

Section 2 classifies reconfiguration granularities (selective-sets [34],
selective-ways [5], hybrid, ...) and Section 5 gives the paper's reasons
for choosing selective-ways: "unlike selective-sets approach used in
previous works, the selective-ways approach used in ESTEEM does not
require changing the set-decoding of the cache".

This module implements the selective-sets alternative so the argument can
be measured (``benchmarks/bench_ablation_selective_sets.py``):

* The active set count is a power of two; lookups index with a narrowed
  ``active_set_mask``.
* Changing the set count *changes set decoding*: every resident line's
  mapping is invalidated, so a reconfiguration flushes the whole cache
  (dirty lines are written back) -- exactly the overhead the paper cites.
* Capacity decisions reuse Algorithm 1's machinery: the alpha-covering
  way count over the aggregated hit histogram fixes a target capacity
  fraction, which is rounded *up* to the next power-of-two set count.

The controller is duck-compatible with
:class:`~repro.core.esteem.EsteemController` so the simulation loop can
drive either.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.config import EsteemConfig
from repro.core.algorithm import IntervalDecision, esteem_decide
from repro.core.atd import ATDProfiler
from repro.core.modules import ModuleMap
from repro.mem.dram import MainMemory

__all__ = ["SelectiveSetsController"]

#: Smallest share of the sets the controller keeps on (rounded down to a
#: power of two, at least one set).
MIN_SET_FRACTION = 1.0 / 16.0


class SelectiveSetsController:
    """Interval-driven set-count reconfiguration for the shared L2."""

    def __init__(
        self,
        cache: SetAssociativeCache,
        config: EsteemConfig,
        memory: MainMemory | None = None,
    ) -> None:
        self.cache = cache
        self.config = config
        self.memory = memory
        # Single-module profiling: selective-sets has one global knob, so
        # the histograms aggregate over all leader sets.
        self.module_map = ModuleMap(cache.num_sets, 1, config.sampling_ratio)
        self.profiler = ATDProfiler(cache, self.module_map)
        self.active_sets = cache.num_sets
        self.min_sets = max(1, _floor_pow2(int(cache.num_sets * MIN_SET_FRACTION)))
        self.timeline: list[IntervalDecision] = []
        self._interval_index = 0

    # ------------------------------------------------------------------

    def on_interval_end(self, now_cycle: int, window: int = 0) -> IntervalDecision:
        """Pick a power-of-two set count covering the alpha hit target."""
        cfg = self.config
        decision = esteem_decide(
            self.profiler.snapshot(),
            a_min=cfg.a_min,
            alpha=cfg.alpha,
            associativity=self.cache.associativity,
            nonlru_guard=cfg.nonlru_guard,
        )
        target_ways = decision.n_active_way[0]
        fraction = target_ways / self.cache.associativity
        wanted_sets = _ceil_pow2(
            max(self.min_sets, int(round(self.cache.num_sets * fraction)))
        )
        wanted_sets = min(wanted_sets, self.cache.num_sets)

        transitions = 0
        writebacks = 0
        discards = 0
        if wanted_sets != self.active_sets:
            writebacks, discards = self._flush_all()
            transitions = abs(wanted_sets - self.active_sets) * self.cache.associativity
            self._apply_set_count(wanted_sets)
            if self.memory is not None and writebacks:
                self.memory.write_many(now_cycle, writebacks)

        record = IntervalDecision(
            interval_index=self._interval_index,
            cycle=now_cycle,
            n_active_way=(target_ways,),
            non_lru=decision.non_lru,
            active_fraction=self.active_fraction(),
            transitions=transitions,
            flush_writebacks=writebacks,
            clean_discards=discards,
        )
        self.timeline.append(record)
        self._interval_index += 1
        self.profiler.reset()
        return record

    # ------------------------------------------------------------------

    def _flush_all(self) -> tuple[int, int]:
        """Empty the cache; returns (dirty writebacks, clean discards).

        A set-count change redefines every line's index mapping (the
        paper's set-decoding objection), so nothing can stay resident.
        """
        state = self.cache.state
        dirty = int(np.count_nonzero(state.valid & state.dirty))
        clean = int(np.count_nonzero(state.valid & ~state.dirty))
        self.cache.invalidate_all()
        return dirty, clean

    def _apply_set_count(self, wanted_sets: int) -> None:
        cache = self.cache
        cache.active_set_mask = wanted_sets - 1
        a = cache.associativity
        state = cache.state
        state.active[: wanted_sets * a] = True
        state.active[wanted_sets * a :] = False
        self.active_sets = wanted_sets

    def active_fraction(self) -> float:
        return self.active_sets / self.cache.num_sets


def _ceil_pow2(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def _floor_pow2(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value.bit_length() - 1)
