"""Module partitioning of the cache sets (system S10).

ESTEEM "logically divides the cache sets into different modules. For
example, with 4096 sets and 16 modules, each module has 256 sets"
(Section 1.1).  Modules are contiguous ranges of set indices; each module
gets an independent active-way count.

Leader (profiling) sets are chosen by set sampling: one set in every
``sampling_ratio`` (Section 3.2, R_s).  Statistics from a leader set count
towards the module the leader falls in, and leader sets never reconfigure.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["ModuleMap"]


@lru_cache(maxsize=16)
def _layout(num_sets: int, num_modules: int, sampling_ratio: int) -> tuple:
    """``(followers per module, set -> module)`` as read-only tuples.

    Built once per geometry and process: every ESTEEM or selective-sets
    construction over the same L2 reads the same tables.
    """
    spm = num_sets // num_modules
    rs = sampling_ratio
    return (
        tuple(
            tuple(s for s in range(f, f + spm) if s % rs)
            for f in range(0, num_sets, spm)
        ),
        tuple(s // spm for s in range(num_sets)),
    )


class ModuleMap:
    """Set <-> module geometry plus the leader-set sampling pattern."""

    def __init__(self, num_sets: int, num_modules: int, sampling_ratio: int) -> None:
        if num_sets % num_modules != 0:
            raise ValueError(
                f"{num_modules} modules must divide {num_sets} sets evenly"
            )
        self.num_sets = num_sets
        self.num_modules = num_modules
        self.sampling_ratio = sampling_ratio
        self.sets_per_module = num_sets // num_modules
        if self.sets_per_module < sampling_ratio:
            raise ValueError(
                "each module needs at least one leader set "
                f"(sets/module={self.sets_per_module} < R_s={sampling_ratio})"
            )
        self._leaders = range(0, num_sets, sampling_ratio)
        self._followers_in, self._module_of_set = _layout(
            num_sets, num_modules, sampling_ratio
        )

    # ------------------------------------------------------------------

    def module_of(self, set_index: int) -> int:
        """Module containing ``set_index``."""
        return set_index // self.sets_per_module

    def set_range(self, module: int) -> tuple[int, int]:
        """Half-open set-index range ``[first, last)`` of ``module``."""
        first = module * self.sets_per_module
        return first, first + self.sets_per_module

    def is_leader(self, set_index: int) -> bool:
        return set_index % self.sampling_ratio == 0

    def leaders(self) -> list[int]:
        """All leader set indices."""
        return list(self._leaders)

    def leaders_in(self, module: int) -> list[int]:
        first, last = self.set_range(module)
        rs = self.sampling_ratio
        return list(range(-(-first // rs) * rs, last, rs))

    def followers_in(self, module: int) -> list[int]:
        """Follower (reconfigurable) sets of ``module``."""
        return list(self._followers_in[module])

    def module_of_set_list(self) -> list[int]:
        """Dense ``set -> module`` lookup table for the cache's hot path."""
        return list(self._module_of_set)

    @property
    def num_leaders(self) -> int:
        return len(self._leaders)
