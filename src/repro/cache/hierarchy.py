"""Two-level cache hierarchy (system S2) for instruction-level traces.

The headline experiments drive the L2 with post-L1-filtered traces (see
DESIGN.md section 1), but the full hierarchy is part of the substrate:
driven directly (``examples/custom_workload.py``), it routes every
load/store through a private L1 first, with L1 writebacks installed into
the shared L2.

The hierarchy is non-inclusive / writeback / write-allocate at both levels,
matching the simple latency model of the paper's platform (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry

__all__ = ["HierarchyResult", "TwoLevelHierarchy"]


@dataclass
class HierarchyResult:
    """Where a single access was served and what traffic it generated."""

    l1_hit: bool
    #: None when the access never reached the L2.
    l2_hit: bool | None
    #: Line addresses written back from L2 to memory (dirty L2 evictions).
    #: Can hold up to two entries when an L1-writeback install and the
    #: demand fill each evicted a dirty L2 line.
    memory_writebacks: tuple[int, ...]
    #: Whether an L1 dirty eviction was installed into the L2.
    l1_writeback_to_l2: bool

    @property
    def served_by(self) -> str:
        """Which level satisfied the access: "L1", "L2" or "MEM"."""
        if self.l1_hit:
            return "L1"
        return "L2" if self.l2_hit else "MEM"


class TwoLevelHierarchy:
    """A private L1 in front of a (possibly shared) L2.

    Parameters
    ----------
    l1_geometry:
        Geometry of the private first-level cache.
    l2:
        The shared second-level cache instance (owned by the caller so that
        several cores can share one L2).
    core_id:
        Used only for naming.
    """

    def __init__(
        self,
        l1_geometry: CacheGeometry,
        l2: SetAssociativeCache,
        core_id: int = 0,
    ) -> None:
        self.l1 = SetAssociativeCache(l1_geometry, name=f"L1D{core_id}")
        self.l2 = l2
        self.core_id = core_id

    def access(self, line_addr: int, is_write: bool, window: int = 0) -> HierarchyResult:
        """Route one demand access through L1 then (on miss) L2.

        An L1 dirty eviction becomes a write access to the L2 (writeback,
        write-allocate); a dirty L2 eviction surfaces as ``memory_writeback``
        so the caller can charge memory traffic.
        """
        l1_hit, _pos, l1_wb = self.l1.access(line_addr, is_write, window)
        if l1_hit:
            return HierarchyResult(
                l1_hit=True,
                l2_hit=None,
                memory_writebacks=(),
                l1_writeback_to_l2=False,
            )
        mem_wbs: list[int] = []
        l1_wrote_back = False
        if l1_wb >= 0:
            # Install the evicted dirty L1 line into the L2 as a write.
            l1_wrote_back = True
            _h, _p, wb = self.l2.access(l1_wb, True, window)
            if wb >= 0:
                mem_wbs.append(wb)
        l2_hit, _pos2, wb2 = self.l2.access(line_addr, is_write, window)
        if wb2 >= 0:
            mem_wbs.append(wb2)
        return HierarchyResult(
            l1_hit=False,
            l2_hit=l2_hit,
            memory_writebacks=tuple(mem_wbs),
            l1_writeback_to_l2=l1_wrote_back,
        )
