"""One cache set: tags, recency order, tag->way map, and the enable count.

Hot-path note (see the optimisation guide): :meth:`SetAssociativeCache.access
<repro.cache.cache.SetAssociativeCache.access>` and the timing fast loop
manipulate the public list attributes of this class directly instead of
going through method calls -- the per-access cost budget is a couple of
microseconds and Python call overhead would dominate.  The few methods
here serve invalidation, the batch kernel's export and invariant checks.

Every mutation of ``tags`` must keep ``tag_map`` (the O(1) lookup index)
in sync; :meth:`drop_way` does so, and the hot/cold paths that write
``tags[way]`` directly (cache fill, reconfiguration shrink, refresh-engine
invalidations, the warm-image clone) update both structures in place.
:meth:`check_invariants` asserts the mirror stays exact.
"""

from __future__ import annotations

from repro.cache.block import LineState

__all__ = ["CacheSet"]


class CacheSet:
    """State of a single set in a set-associative cache.

    Attributes
    ----------
    tags:
        ``tags[way]`` is the tag stored in that way, or ``None`` when the
        way holds no valid line.  ``tags[way] is None`` is the canonical
        validity test on the scalar path; the NumPy ``LineState.valid``
        array mirrors it for the vectorised refresh path.
    tag_map:
        ``tag_map[tag] -> way`` for every non-``None`` entry of ``tags``.
        This is the O(1) lookup index the hot path probes instead of a
        linear ``tags.index`` scan; a set never holds the same tag twice,
        so the mapping is exact.
    order:
        Way indices in recency order, most-recently-used first.
    n_active:
        Number of powered-on ways; ways ``[0, n_active)`` are usable.
        Leader sets keep ``n_active == associativity`` permanently.
    is_leader:
        True when this set is a profiling (leader) set of the embedded ATD.
    """

    __slots__ = (
        "index",
        "base",
        "tags",
        "tag_map",
        "order",
        "n_active",
        "is_leader",
    )

    def __init__(self, index: int, associativity: int, is_leader: bool = False) -> None:
        self.index = index
        #: First global line index of this set (``index * associativity``);
        #: precomputed so the hot path indexes the flat state arrays with
        #: one add instead of a multiply-add.
        self.base = index * associativity
        self.tags: list[int | None] = [None] * associativity
        self.tag_map: dict[int, int] = {}
        self.order: list[int] = list(range(associativity))
        self.n_active = associativity
        self.is_leader = is_leader

    def drop_way(self, way: int) -> int | None:
        """Clear ``way``'s tag (map kept in sync); returns the old tag."""
        tag = self.tags[way]
        if tag is not None:
            del self.tag_map[tag]
            self.tags[way] = None
        return tag

    def resident_tags(self) -> list[int]:
        """Tags of all valid lines (test helper)."""
        return [t for t in self.tags if t is not None]

    def check_invariants(
        self, state: LineState, gated_retains_data: bool = False
    ) -> None:
        """Raise AssertionError when internal state is inconsistent.

        A gated way may hold a line only when ``gated_retains_data``
        (drowsy gating keeps the data; off-mode gating flushes it).
        """
        a = len(self.tags)
        assert sorted(self.order) == list(range(a)), "order must be a permutation"
        assert 1 <= self.n_active <= a, "active way count out of range"
        assert self.tag_map == {
            tag: way for way, tag in enumerate(self.tags) if tag is not None
        }, f"tag_map out of sync at set {self.index}"
        for way, tag in enumerate(self.tags):
            g = state.gidx(self.index, way)
            assert (tag is not None) == bool(
                state.valid[g]
            ), f"valid mirror out of sync at set {self.index} way {way}"
            if tag is None:
                assert not state.dirty[g], "invalid line cannot be dirty"
            if way >= self.n_active and not (
                self.is_leader or gated_retains_data
            ):
                assert tag is None, "disabled way must not hold a line"
