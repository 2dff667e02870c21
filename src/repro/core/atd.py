"""The embedded auxiliary tag directory (ATD) profiler (system S9).

Section 3.2: ESTEEM profiles the workload with an ATD that has the same
associativity and replacement policy as the main tag directory, using set
sampling to keep the overhead small.  "We use an ATD, which is embedded in
the MTD of the L2 cache": the leader sets *are* the ATD -- they keep all
ways enabled, never reconfigure, and on every leader-set hit the recency
position of the hit is recorded in the per-module histogram ``nL2Hit``.

The cache's hot path performs the actual recording (see
:meth:`repro.cache.cache.SetAssociativeCache.access`); this class owns the
histogram storage and the attach/reset lifecycle.
"""

from __future__ import annotations

from repro.cache.cache import SetAssociativeCache
from repro.core.modules import ModuleMap

__all__ = ["ATDProfiler"]


class ATDProfiler:
    """Per-module LRU-position hit histograms collected from leader sets."""

    def __init__(self, cache: SetAssociativeCache, module_map: ModuleMap) -> None:
        if cache.num_sets != module_map.num_sets:
            raise ValueError("module map does not match the cache geometry")
        self.cache = cache
        self.module_map = module_map
        a = cache.associativity
        m = module_map.num_modules
        #: nL2Hit[m][pos]: leader-set hits at recency position ``pos``.
        self.hist: list[list[int]] = [[0] * a for _ in range(m)]
        self._attach()

    def _attach(self) -> None:
        """Install the profiling hook into the cache's hot path.

        Marks the map's leader sets, which stay fully active forever, and
        touches no other set: the cache must come without leaders, as a
        constructed cache and a
        :meth:`~repro.cache.cache.SetAssociativeCache.from_image` clone do.
        """
        sets = self.cache.sets
        for s in self.module_map.leaders():
            sets[s].is_leader = True
        self.cache.module_of_set = self.module_map.module_of_set_list()
        self.cache.profile_hist = self.hist

    # ------------------------------------------------------------------

    def snapshot(self) -> list[list[int]]:
        """Copy of the current histograms (``nL2Hit`` input to Algorithm 1)."""
        return [row[:] for row in self.hist]

    def reset(self) -> None:
        """Clear the histograms at an interval boundary.

        The list objects are mutated in place -- the cache holds references
        to the same rows.
        """
        for row in self.hist:
            for i in range(len(row)):
                row[i] = 0

    def total_hits(self) -> int:
        return sum(sum(row) for row in self.hist)

    def module_hits(self, module: int) -> int:
        return sum(self.hist[module])
