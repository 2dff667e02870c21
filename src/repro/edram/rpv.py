"""Refrint polyphase-valid (RPV) refresh policy (Agrawal et al., HPCA'13).

The comparison technique of the paper (Section 6.2).  RPV exploits the fact
that a read or write automatically refreshes an eDRAM block, so a block
touched in phase ``p`` of one retention period does not need attention until
phase ``p`` of the *next* retention period:

* The retention period is divided into ``P`` phases (4 in the paper).
* A block's last update is the phase window of its last access or
  refresh.
* At the start of each phase window ``w``, RPV refreshes exactly the valid
  blocks whose last update fell in window ``w - P`` -- i.e. blocks whose
  data is about to turn one retention period old.
* Invalid blocks are never refreshed.

RPV does not change hit/miss behaviour or invalidate anything, so its
``ActiveRatio`` is always 100% and its MPKI delta is zero (Section 6.4).

Implementation: the cache stamps ``LineState.last_window`` on every access
(see :meth:`repro.cache.cache.SetAssociativeCache.access`); this engine
only reads the stamps.  A refresh at window ``w`` would move a stamp by a
multiple of ``P``, so a line's *phase class* (stamp mod ``P``) changes
only when the line is accessed, and the class alone says when the line
comes due.  The stamp is therefore the window of the last *access*;
:meth:`last_update_windows` derives the last access-or-refresh window
from it.  ``P`` must be a power of two
(:class:`~repro.config.RefreshConfig` enforces it) so the class is a bit
mask, which is far cheaper than an int64 modulo.

A boundary's count is one lookup when the simulator's fast loop keeps a
tally of valid lines per phase class (:meth:`arm_tally`): it updates the
tally wherever it writes a stamp or fills a line, so no boundary rescans
the cache.  Unarmed -- the reference loop, faulted runs, hand-built
states -- each boundary runs one vectorised count over every line, and
that scan is the reference the tally is checked against
(:meth:`release_tally`).
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
        self._class_mask = self.phases - 1
        # A valid stamp older than ``1 - P`` is due at the first boundary
        # (window 1), after which it would sit in class 1: move it there
        # now.  Warm images stamp within [1 - P, 0], so only hand-built
        # states change.
        lw = state.last_window
        floor = 1 - self.phases
        lw[state.valid & (lw < floor)] = floor
        #: Valid lines per phase class while a simulation loop keeps the
        #: count (:meth:`arm_tally`), else ``None``.
        self.tally: list[int] | None = None

    @property
    def window_cycles(self) -> int:
        """RPV schedules work at phase granularity, not retention granularity."""
        return self.config.phase_cycles

    def _class_counts(self) -> list[int]:
        """Valid lines per phase class, counted from the line state."""
        state = self.state
        classes = state.last_window[state.valid] & self._class_mask
        return np.bincount(classes, minlength=self.phases).tolist()

    def arm_tally(self) -> list[int]:
        """Count valid lines per phase class once, and answer boundaries
        from that tally until :meth:`release_tally`.

        The caller owns keeping the returned list exact: wherever it
        moves a valid line's stamp to another class, fills an invalid
        line or evicts a valid one, it moves the line's count with it.
        Nothing else may change ``valid`` or ``last_window`` while armed.
        """
        self.tally = self._class_counts()
        return self.tally

    def release_tally(self) -> None:
        """Disarm, after checking the tally against a recount.

        Raises :class:`RuntimeError` when they differ: some write to the
        line state bypassed the tally, and every boundary count since
        may be wrong.
        """
        tally, self.tally = self.tally, None
        recount = self._class_counts()
        if tally != recount:
            raise RuntimeError(
                f"{self.name}: phase-class tally {tally} disagrees with the "
                f"line state {recount}"
            )

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        """Count the valid lines of boundary ``w``'s phase class.

        A line is due at window ``w`` when its last update fell in window
        ``w - P``: its stamp is in ``w``'s class and at most ``w - P``.
        The bound needs no test -- a running system never stamps a window
        whose boundary the engine has not yet processed, so every stamp in
        ``w``'s class is already at most ``w - P`` -- and the refresh
        needs no restamp, since it leaves the class unchanged.  Lines
        never touched at all (stamp -1 on an invalid fill slot) are
        excluded by the validity mask.

        Armed, the count is the tally's entry for ``w``'s class; unarmed,
        one scan over every line computes it (the reference).
        """
        mask = self._class_mask
        w = boundary_cycle // self.config.phase_cycles
        if self.tally is not None:
            return self.tally[w & mask]
        state = self.state
        return int(
            np.count_nonzero(state.valid & ((state.last_window & mask) == (w & mask)))
        )

    def last_update_windows(self) -> np.ndarray:
        """Each line's last access-or-refresh window, as of the last boundary.

        For a valid line this is the latest window, no later than the last
        processed boundary's, in the line's phase class.  Invalid lines
        keep their raw stamp.
        """
        w = self._next_boundary // self.window_cycles - 1
        lw = self.state.last_window
        return np.where(self.state.valid, w - ((w - lw) & self._class_mask), lw)
