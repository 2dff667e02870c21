"""Refresh engines (system S7): who gets refreshed, and when.

All engines share the same skeleton: the simulation advances them lazily
(:meth:`RefreshEngine.advance_to`), they process every refresh boundary that
was crossed, count the lines refreshed (``N_R`` in the energy model,
Eq. 6), and update the expected per-access stall derived from the banked
scheduler.

Engines provided:

* :class:`PeriodicAllRefresh` -- the paper's baseline: every line of the
  cache (valid or not) is refreshed once per retention period.
* :class:`PeriodicValidRefresh` -- refreshes only valid lines (Agrawal et
  al.'s periodic-valid policy; also the refresh mode ESTEEM applies inside
  the active portion, via :class:`EsteemValidActiveRefresh`).
* :class:`EsteemValidActiveRefresh` -- valid lines in powered-on ways only.
* :class:`~repro.edram.rpv.RefrintPolyphaseValid` -- see ``rpv.py``.
* :class:`NoRefresh` -- control engine for tests/ablations (Reohr's
  "no-refresh" end point; real eDRAM would lose data).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.cache.block import LineState
from repro.config import RefreshConfig
from repro.edram.bank import BankedRefreshScheduler
from repro.obs.trace import EVENT_REFRESH_BURST

__all__ = [
    "DROWSY_RETENTION_MULTIPLIER",
    "EsteemDrowsyRefresh",
    "EsteemValidActiveRefresh",
    "NoRefresh",
    "PeriodicAllRefresh",
    "PeriodicValidRefresh",
    "RefreshEngine",
]

#: How much longer a drowsy line holds its data than an active one: the
#: low-voltage retention state leaks its cells more slowly.
DROWSY_RETENTION_MULTIPLIER = 4


class RefreshEngine(ABC):
    """Base class: lazy boundary processing + stall bookkeeping.

    Parameters
    ----------
    state:
        The cache's global per-line state (shared with the cache model).
    config:
        Refresh machinery parameters.
    """

    #: Human-readable policy name for reports.
    name: str = "abstract"

    #: Whether boundary processing can mutate cache *contents* -- tags,
    #: validity, dirtiness, or recency (dropping lines, invalidating
    #: ways).  Engines that only read line state and count refreshes
    #: leave this False.  The batch classification kernel keys its
    #: quiescence predicate on this flag: a True engine can change
    #: hit/miss outcomes at any refresh boundary, so runs under it are
    #: never batch-classified.
    mutates_cache_state: bool = False

    def __init__(self, state: LineState, config: RefreshConfig) -> None:
        self.state = state
        self.config = config
        self.scheduler = BankedRefreshScheduler(
            config.num_banks, config.lines_per_refresh_burst
        )
        self.total_refreshes = 0
        self._delta_refreshes = 0
        self.current_stall = 0.0
        self._next_boundary = self.window_cycles
        #: Number of refresh boundaries processed (diagnostics).
        self.boundaries = 0
        #: Event tracer for refresh bursts (``None`` = disabled; the owning
        #: :class:`~repro.timing.system.System` injects an enabled one).
        self.tracer = None
        #: Optional :class:`~repro.faults.inject.FaultInjector` consulted
        #: at every refresh boundary (``None`` = no fault plan; the only
        #: disabled cost is one ``is not None`` test per boundary, which
        #: is maintenance-path, not per-record).  Injected retention
        #: faults latch at the refresh boundary at/after their due cycle:
        #: physically, a decayed cell's corruption is *discovered* when
        #: the line is next refreshed or scrubbed, and latching keeps both
        #: simulation loops (reference and fast) on the identical
        #: maintenance schedule, so faulted runs stay loop-independent and
        #: bit-for-bit reproducible.
        self.injector = None

    # ------------------------------------------------------------------

    @property
    def window_cycles(self) -> int:
        """Scheduling window length; one refresh boundary per window."""
        return self.config.retention_cycles

    @property
    def phase_cycles(self) -> int:
        """Length of the phase windows the cache stamps accesses with."""
        return self.config.phase_cycles

    @abstractmethod
    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        """Lines refreshed at the boundary starting at ``boundary_cycle``."""

    # ------------------------------------------------------------------

    def advance_to(self, cycle: int) -> None:
        """Process every refresh boundary with start time <= ``cycle``."""
        nb = self._next_boundary
        if cycle < nb:
            return
        window = self.window_cycles
        tracer = self.tracer
        injector = self.injector
        while nb <= cycle:
            count = self._lines_to_refresh(nb)
            self.total_refreshes += count
            self._delta_refreshes += count
            self.current_stall = self.scheduler.expected_stall(count, window)
            self.boundaries += 1
            if tracer is not None and count:
                tracer.emit(
                    EVENT_REFRESH_BURST,
                    nb,
                    policy=self.name,
                    lines=count,
                    stall_cycles=self.current_stall,
                    boundary=self.boundaries - 1,
                )
            if injector is not None:
                # Faults due in the window ending here manifest after the
                # boundary's refresh has been counted (the refresh logic
                # touched the line and found it corrupt).
                injector.at_boundary(nb)
            nb += window
        self._next_boundary = nb

    @property
    def next_boundary(self) -> int:
        """First cycle at which :meth:`advance_to` would do any work.

        The fast loop uses this as one input to its event horizon:
        strictly before this cycle, ``advance_to`` is a guaranteed no-op
        and ``current_stall`` cannot change.
        """
        return self._next_boundary

    def access_stall(self) -> float:
        """Expected refresh-collision stall for a demand access arriving now."""
        return self.current_stall

    def take_refresh_delta(self) -> int:
        """Refreshes since the last call (interval accounting, ``N_R``)."""
        delta = self._delta_refreshes
        self._delta_refreshes = 0
        return delta

    def take_writeback_delta(self) -> int:
        """Writebacks the engine generated since the last call.

        Zero for every policy except those that invalidate dirty lines
        (cache decay); the system posts these to main memory at the next
        interval boundary.
        """
        return 0

    def window_index(self, cycle: int) -> int:
        """Phase-window index the cache should stamp an access with."""
        return cycle // self.phase_cycles


class PeriodicAllRefresh(RefreshEngine):
    """Baseline: refresh every line of the cache each retention period.

    This is the paper's reference point (Section 6.4: "an eDRAM cache which
    periodically refreshes all the cache lines at the given retention period
    and does not use any refresh-minimization technique").
    """

    name = "baseline"

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        return self.state.num_lines


class PeriodicValidRefresh(RefreshEngine):
    """Refresh only valid lines each retention period."""

    name = "periodic-valid"

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        return int(np.count_nonzero(self.state.valid))


class EsteemValidActiveRefresh(RefreshEngine):
    """ESTEEM's refresh mode: valid lines in powered-on ways only.

    "Further, in the active portion of cache, only the valid blocks are
    refreshed, which further reduces the refresh energy." (Section 3.1)
    """

    name = "esteem-refresh"

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        return int(np.count_nonzero(self.state.valid & self.state.active))


class EsteemDrowsyRefresh(EsteemValidActiveRefresh):
    """ESTEEM with drowsy gating: gated lines refresh, but more slowly.

    In drowsy mode a gated way keeps its data in a low-voltage retention
    state (Morishita et al., the paper's [32]); the slower cell leakage
    stretches the retention period by :data:`DROWSY_RETENTION_MULTIPLIER`,
    so drowsy valid lines are refreshed only at every k-th retention
    boundary.
    """

    name = "esteem-drowsy"

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        active = super()._lines_to_refresh(boundary_cycle)
        boundary_index = boundary_cycle // self.window_cycles
        if boundary_index % DROWSY_RETENTION_MULTIPLIER == 0:
            drowsy = int(
                np.count_nonzero(self.state.valid & ~self.state.active)
            )
            return active + drowsy
        return active


class NoRefresh(RefreshEngine):
    """Control engine: never refreshes (ablation / SRAM-like bound)."""

    name = "no-refresh"

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        return 0
