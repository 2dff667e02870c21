"""Way-gating reconfiguration controller (system S12).

Section 5: "When the number of ways is reduced, the clean cache lines in
those ways are discarded and the dirty lines are written-back.  When the
number of ways is increased, the extra ways are simply turned-on and they
are subsequently used for storing data."

Power gating is abstracted to per-way disable bits (as in the paper, which
assumes a circuit-level gating technique).  Every cache block whose way
changes power state counts toward ``N_L`` (Eq. 8's transition count).
Leader sets never reconfigure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.core.modules import ModuleMap

__all__ = ["ReconfigStats", "ReconfigurationController"]


@dataclass
class ReconfigStats:
    """Traffic and transition accounting for one reconfiguration."""

    #: N_L: blocks that were powered on or off.
    transitions: int = 0
    #: Dirty lines flushed to memory (line addresses).
    writebacks: list[int] = field(default_factory=list)
    #: Clean lines that were simply discarded.
    clean_discards: int = 0
    #: Modules whose way count changed.
    modules_changed: int = 0


class ReconfigurationController:
    """Applies per-module active-way decisions to the cache."""

    def __init__(
        self,
        cache: SetAssociativeCache,
        module_map: ModuleMap,
        drowsy: bool = False,
    ) -> None:
        self.cache = cache
        self.module_map = module_map
        #: In drowsy mode gated ways retain their data in a low-leakage
        #: state instead of being flushed.
        self.drowsy = drowsy
        cache.gated_ways_retain_data = drowsy
        a = cache.associativity
        #: Current active-way count per module (followers only).
        self.current: list[int] = [a] * module_map.num_modules
        self._followers: list[list[int]] = [
            module_map.followers_in(m) for m in range(module_map.num_modules)
        ]
        # Vectorised-flush geometry: modules are contiguous set ranges, so
        # per-set way thresholds come from np.repeat over the per-module
        # decisions; leader sets are excluded by forcing an empty range.
        self._leader_sets_np = np.asarray(module_map.leaders(), dtype=np.intp)
        self._way_idx = np.arange(a, dtype=np.int64)[None, :]
        self.total_reconfigurations = 0

    # ------------------------------------------------------------------

    def apply(self, n_active_way: list[int] | tuple[int, ...], window: int = 0) -> ReconfigStats:
        """Move every module to its new active-way count.

        Returns the flush/transition accounting; the caller is responsible
        for charging the writebacks to main memory and ``N_L`` to the
        energy model.
        """
        mm = self.module_map
        cache = self.cache
        state = cache.state
        a = cache.associativity
        stats = ReconfigStats()

        if len(n_active_way) != mm.num_modules:
            raise ValueError("decision width does not match module count")

        current = self.current
        changed = []
        any_shrink = False
        for m, new in enumerate(n_active_way):
            if not 1 <= new <= a:
                raise ValueError(f"module {m}: active ways {new} out of range")
            old = current[m]
            if new != old:
                changed.append((m, old, new))
                if new < old:
                    any_shrink = True
        if not changed:
            return stats
        stats.modules_changed = len(changed)

        # Shrink: flush lines living in ways being gated.  All shrinking
        # modules are handled in one whole-cache pass -- a handful of
        # full-array operations beat many small per-module fancy-indexing
        # calls.  In drowsy mode gated ways retain their data instead.
        if any_shrink and not self.drowsy:
            self._flush_gated(n_active_way, stats)

        sets_list = cache.sets
        for m, old, new in changed:
            followers = self._followers[m]
            for s in followers:
                sets_list[s].n_active = new
            stats.transitions += abs(new - old) * len(followers)
            current[m] = new
            # Update the vectorised active mask for the refresh engine.
            first, last = mm.set_range(m)
            state.set_module_active_ways(first, last, new)
            for s in mm.leaders_in(m):
                state.set_set_fully_active(s)

        self.total_reconfigurations += 1
        return stats

    def _flush_gated(self, n_active_way, stats: ReconfigStats) -> None:
        """Flush every line in a way about to be gated, cache-wide.

        Per-set gate ranges come from np.repeat over the per-module old/new
        decisions (modules are contiguous ascending set ranges); growing or
        unchanged modules produce an empty range (new >= old) and leader
        sets are excluded by forcing theirs empty too.  Writebacks emerge
        from one row-major np.nonzero, which preserves the historical
        (module, follower, way)-ascending order because followers ascend
        within each module.
        """
        cache = self.cache
        state = cache.state
        a = cache.associativity
        spm = self.module_map.sets_per_module
        old_ps = np.repeat(np.asarray(self.current, dtype=np.int64), spm)
        new_ps = np.repeat(np.asarray(n_active_way, dtype=np.int64), spm)
        new_ps[self._leader_sets_np] = a
        gate = (self._way_idx >= new_ps[:, None]) & (self._way_idx < old_ps[:, None])
        valid2d = state.valid.reshape(-1, a)
        gated_valid = valid2d & gate
        n_valid = int(np.count_nonzero(gated_valid))
        if n_valid == 0:
            # Invalid lines are never dirty, so there is nothing to flush
            # and the state arrays already read False in the gated ways.
            return
        dirty2d = state.dirty.reshape(-1, a)
        gated_dirty = gated_valid & dirty2d
        n_dirty = int(np.count_nonzero(gated_dirty))
        stats.clean_discards += n_valid - n_dirty
        sets_list = cache.sets
        if n_dirty:
            # Tags store full line addresses.
            rows, cols = np.nonzero(gated_dirty)
            writebacks = stats.writebacks
            for r, c in zip(rows.tolist(), cols.tolist()):
                writebacks.append(sets_list[r].tags[c])
        # Only sets actually holding lines in gated ways pay a Python pass
        # for the tag list / tag map upkeep.  Ways above the old count are
        # already empty, so when the gated range outnumbers the surviving
        # head it is cheaper to rebuild the map from the head than to
        # delete each gated entry.
        new_list = new_ps.tolist()
        old_list = old_ps.tolist()
        none_tails: dict[int, list[None]] = {}
        for r in np.nonzero(gated_valid.any(axis=1))[0].tolist():
            cset = sets_list[r]
            tags = cset.tags
            lo = new_list[r]
            hi = old_list[r]
            if hi - lo >= lo:
                head = tags[:lo]
                if None in head:
                    cset.tag_map = {
                        tag: w for w, tag in enumerate(head) if tag is not None
                    }
                else:
                    cset.tag_map = dict(zip(head, range(lo)))
                n_tail = a - lo
                tail = none_tails.get(n_tail)
                if tail is None:
                    tail = none_tails[n_tail] = [None] * n_tail
                tags[lo:] = tail
            else:
                tag_map = cset.tag_map
                for way in range(lo, hi):
                    tag = tags[way]
                    if tag is not None:
                        del tag_map[tag]
                        tags[way] = None
        valid2d &= ~gate
        dirty2d &= ~gate

    # ------------------------------------------------------------------

    def active_line_count(self) -> int:
        """Powered-on lines, counting leader sets as fully active."""
        mm = self.module_map
        a = self.cache.associativity
        leaders_total = mm.num_leaders * a
        followers = mm.followers_per_module
        return leaders_total + sum(n * followers for n in self.current)

    def active_fraction(self) -> float:
        """F_A including the always-on leader sets (Section 6.3)."""
        total = self.cache.num_sets * self.cache.associativity
        return self.active_line_count() / total
