"""Refrint polyphase-valid (RPV) refresh policy (Agrawal et al., HPCA'13).

The comparison technique of the paper (Section 6.2).  RPV exploits the fact
that a read or write automatically refreshes an eDRAM block, so a block
touched in phase ``p`` of one retention period does not need attention until
phase ``p`` of the *next* retention period:

* The retention period is divided into ``P`` phases (4 in the paper).
* Every block records the phase window in which it was last updated
  (an access or a refresh both count as updates).
* At the start of each phase window ``w``, RPV refreshes exactly the valid
  blocks whose last update fell in window ``w - P`` -- i.e. blocks whose
  data is about to turn one retention period old.
* Invalid blocks are never refreshed.

RPV does not change hit/miss behaviour or invalidate anything, so its
``ActiveRatio`` is always 100% and its MPKI delta is zero (Section 6.4).

Implementation: the cache stamps ``LineState.last_window`` on every access
(see :meth:`repro.cache.cache.SetAssociativeCache.access`); this engine does
one vectorised scan per phase boundary.
"""

from __future__ import annotations

import numpy as np

from repro.cache.block import LineState
from repro.config import RefreshConfig
from repro.edram.refresh import RefreshEngine

__all__ = ["RefrintPolyphaseValid"]


class RefrintPolyphaseValid(RefreshEngine):
    """The Refrint polyphase-valid policy with ``P`` phases."""

    name = "rpv"

    def __init__(self, state: LineState, config: RefreshConfig) -> None:
        super().__init__(state, config)
        self.phases = config.rpv_phases

    @property
    def window_cycles(self) -> int:
        """RPV schedules work at phase granularity, not retention granularity."""
        return self.config.phase_cycles

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        """Refresh valid lines whose data is at least one retention old.

        A line last updated in window ``w - P`` (or earlier -- stale
        pre-warmed data starts with staggered stamps below zero) is due at
        the start of window ``w``.  A refresh counts as an update:
        refreshed lines are re-stamped with the current window so they come
        due again ``P`` windows later, staying in their phase.  Lines never
        touched at all (stamp -1 on an invalid fill slot) are excluded by
        the validity mask.
        """
        w = boundary_cycle // self.config.phase_cycles
        due_window = w - self.phases
        state = self.state
        # Restamp by index: a boolean-mask store walks the whole array,
        # while about a quarter of the lines are due at each boundary.
        idx = np.flatnonzero(state.valid & (state.last_window <= due_window))
        state.last_window[idx] = w
        return idx.size

    def lines_due_in_window(self, window_index: int) -> int:
        """Diagnostic: how many valid lines are currently stamped ``window_index``."""
        state = self.state
        return int(np.count_nonzero(state.valid & (state.last_window == window_index)))
