"""Per-line cache state shared between the cache model and refresh engines.

The hit/miss machinery lives in per-set Python lists (fast scalar path), but
the refresh engines need to answer vectorised questions at retention-period
boundaries ("how many valid lines are in active ways?", "which valid lines
were last touched in phase window w?").  :class:`LineState` holds that global
per-line state in NumPy arrays indexed by the *global line index*
``gidx = set_index * associativity + way``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LineState"]


class LineState:
    """Global per-line state arrays for one cache.

    Attributes
    ----------
    valid:
        ``bool`` array; ``valid[g]`` is True when line ``g`` holds data.
    dirty:
        ``bool`` array; modified-state of each line.
    last_window:
        ``int64`` array; index of the phase window in which the line was
        last accessed (RPD also restamps it at a refresh; RPV derives the
        last refresh from the stamp's phase class).  Used by the Refrint
        polyphase policies.  ``-1`` for never-touched lines.
    active:
        ``bool`` array; whether the way holding this line is currently
        powered on.  Always all-True for caches that do not reconfigure.
    """

    __slots__ = ("num_sets", "associativity", "valid", "dirty", "last_window", "active")

    def __init__(self, num_sets: int, associativity: int) -> None:
        n = num_sets * associativity
        self.num_sets = num_sets
        self.associativity = associativity
        self.valid = np.zeros(n, dtype=bool)
        self.dirty = np.zeros(n, dtype=bool)
        self.last_window = np.full(n, -1, dtype=np.int64)
        self.active = np.ones(n, dtype=bool)

    # ------------------------------------------------------------------

    @property
    def num_lines(self) -> int:
        return self.valid.shape[0]

    def gidx(self, set_index: int, way: int) -> int:
        """Global line index of ``(set, way)``."""
        return set_index * self.associativity + way

    def valid_count(self) -> int:
        """Number of valid lines."""
        return int(self.valid.sum())

    def active_count(self) -> int:
        """Number of powered-on lines (valid or not)."""
        return int(np.count_nonzero(self.active))

    def active_fraction(self) -> float:
        """Fraction of the cache that is powered on (``F_A`` of Eq. 4)."""
        return self.active_count() / self.num_lines

    def set_module_active_ways(
        self, first_set: int, last_set: int, n_active: int
    ) -> None:
        """Mark ways ``[0, n_active)`` active for sets ``[first_set, last_set)``."""
        a = self.associativity
        pattern = np.arange(a) < n_active
        view = self.active[first_set * a : last_set * a]
        view[:] = np.tile(pattern, last_set - first_set)

    def snapshot(self) -> dict[str, int]:
        """Cheap summary used by tests and debugging."""
        return {
            "valid": self.valid_count(),
            "dirty": int(self.dirty.sum()),
            "active": self.active_count(),
        }
