"""The set-associative cache model (system S1).

Implements a true-LRU, writeback, write-allocate cache with per-way power
gating.  Lines live only in enabled ways: the reconfiguration controller
flushes a way before disabling it, so the lookup path never needs to mask
disabled ways.

Tag storage note: each way stores the *full line address* rather than the
tag bits above the index.  Functionally identical (address = tag || index),
it keeps lookups a single comparison and -- crucially -- decouples the
stored state from the set-index width, which lets the selective-sets
controller change the number of active sets (``active_set_mask``) without
re-interpreting every stored tag.

The hot path (:meth:`SetAssociativeCache.access`) is written as straight-line
Python -- per the profiling-first guidance, the per-access budget is ~1-2 us
and attribute lookups / function calls are the dominant cost, so locals are
bound once and the per-set state is manipulated in place.  Lookup is O(1):
each set maintains a ``tag -> way`` dict alongside the ``tags`` list (the
list remains the canonical way-indexed view; the dict is the index), so the
hit path costs one dict probe instead of a linear ``tags.index`` scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.cache.block import LineState
from repro.cache.cacheset import CacheSet
from repro.config import CacheGeometry

__all__ = ["CacheStats", "SetAssociativeCache"]


@dataclass
class CacheStats:
    """Monotonic counters; interval deltas are taken by the runner."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    #: Hits served from drowsy (gated, data-retaining) ways.
    drowsy_hits: int = 0
    #: Hits broken down by recency position (whole cache, all sets).
    hits_by_position: list[int] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class SetAssociativeCache:
    """A single cache level with LRU replacement and way gating.

    Parameters
    ----------
    geometry:
        Size / associativity / line size / latency bundle.
    name:
        Label used in reports ("L1D", "L2", ...).
    leader_every:
        When positive, every ``leader_every``-th set (set index divisible by
        it) is marked as a leader set for the embedded ATD (Section 3.2).
        Leader sets always keep every way enabled.
    """

    #: True when a gated way keeps its line (drowsy gating).  The drowsy
    #: :class:`~repro.core.reconfig.ReconfigurationController`, the one
    #: place that knows the gating mode, sets it; the invariant check
    #: reads it.
    gated_ways_retain_data = False

    def __init__(
        self,
        geometry: CacheGeometry,
        name: str = "cache",
        leader_every: int = 0,
    ) -> None:
        self.geometry = geometry
        self.name = name
        s = geometry.num_sets
        a = geometry.associativity
        self.num_sets = s
        self.associativity = a
        self.set_mask = s - 1
        #: Index mask actually used by lookups; the selective-sets
        #: controller narrows it to a power-of-two subset of the sets.
        self.active_set_mask = s - 1
        self.set_bits = geometry.set_index_bits
        self.sets: list[CacheSet] = [
            CacheSet(i, a, is_leader=(leader_every > 0 and i % leader_every == 0))
            for i in range(s)
        ]
        self.state = LineState(s, a)
        self.stats = CacheStats(hits_by_position=[0] * a)
        # Optional profiling hook installed by the ESTEEM controller:
        # module_of_set[s] -> module index, profile_hist[m][pos] += 1 on
        # leader-set hits.  None when no profiler is attached.
        self.module_of_set: list[int] | None = None
        self.profile_hist: list[list[int]] | None = None
        # Optional per-line write counters (NVM endurance studies install
        # a NumPy array here; None keeps the hot path free of the cost).
        self.write_counts = None
        #: Set by the hot path when the last hit came from a drowsy way;
        #: the timing loop consumes and clears it (wake-up penalty).
        self.drowsy_flag = False

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def set_index(self, line_addr: int) -> int:
        return line_addr & self.set_mask

    def line_addr(self, set_index: int, tag: int) -> int:
        return (tag << self.set_bits) | set_index

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def access(self, line_addr: int, is_write: bool, window: int = 0) -> tuple:
        """Perform one demand access.

        Parameters
        ----------
        line_addr:
            Cache-line address (byte address >> log2(line size)).
        is_write:
            Store vs load; stores mark the line dirty.
        window:
            Current refresh phase-window index (an access counts as an
            implicit refresh for the polyphase bookkeeping).

        Returns
        -------
        tuple
            ``(hit, position, writeback_addr)`` where ``position`` is the
            recency position of the hit (0 = MRU, -1 on miss) and
            ``writeback_addr`` is the line address of a dirty eviction
            (-1 when nothing was written back).
        """
        stats = self.stats
        cset = self.sets[line_addr & self.active_set_mask]
        tags = cset.tags
        tag_map = cset.tag_map
        order = cset.order
        state = self.state
        a = self.associativity

        way = tag_map.get(line_addr, -1)

        if way >= 0:
            # Hit: promote to MRU, record recency position.  A hit in a
            # gated way is only possible in drowsy mode (off-mode flushes).
            if way >= cset.n_active and not cset.is_leader:
                stats.drowsy_hits += 1
                self.drowsy_flag = True
            if order[0] == way:
                pos = 0
            else:
                pos = order.index(way)
                del order[pos]
                order.insert(0, way)
            stats.hits += 1
            stats.hits_by_position[pos] += 1
            g = cset.base + way
            if is_write:
                state.dirty[g] = True
                if self.write_counts is not None:
                    self.write_counts[g] += 1
            state.last_window[g] = window
            hist = self.profile_hist
            if hist is not None and cset.is_leader:
                hist[self.module_of_set[cset.index]][pos] += 1
            return (True, pos, -1)

        # Miss: pick a victim among the enabled ways.  ``len(tag_map)``
        # counts every resident line, so a full set (the steady state)
        # skips the invalid-way scan entirely and evicts the recency tail.
        stats.misses += 1
        n = cset.n_active
        need_promote = True
        if n == a:
            if len(tag_map) == a:
                # Full set: the victim is the LRU tail; its recency
                # position is known, so promote without a scan.
                victim = order[-1]
                del order[-1]
                order.insert(0, victim)
                need_promote = False
            else:
                victim = tags.index(None)
        else:
            head = tags[:n]
            if None in head:
                victim = head.index(None)
            else:
                victim = -1
                for w in reversed(order):
                    if w < n:
                        victim = w
                        break
        if victim < 0:
            # No enabled way can accept the fill (n_active == 0 and no
            # invalid way): silently using ``-1`` would corrupt the
            # neighbouring set's last line via ``cset.base - 1``.
            raise RuntimeError(
                f"{self.name}: set {cset.index} has no enabled way to fill "
                f"(n_active={n}, associativity={a})"
            )
        g = cset.base + victim
        wb_addr = -1
        old_tag = tags[victim]
        if old_tag is not None:
            del tag_map[old_tag]
            if state.dirty[g]:
                wb_addr = old_tag
                stats.writebacks += 1
        # Fill.
        tags[victim] = line_addr
        tag_map[line_addr] = victim
        state.valid[g] = True
        state.dirty[g] = is_write
        if is_write and self.write_counts is not None:
            self.write_counts[g] += 1
        state.last_window[g] = window
        if need_promote:
            pos = order.index(victim)
            if pos:
                del order[pos]
                order.insert(0, victim)
        return (False, -1, wb_addr)

    # ------------------------------------------------------------------
    # Cold paths
    # ------------------------------------------------------------------

    def contains(self, line_addr: int) -> bool:
        """Whether the line is resident (no LRU update)."""
        cset = self.sets[line_addr & self.active_set_mask]
        return line_addr in cset.tag_map

    def probe_position(self, line_addr: int) -> int:
        """Recency position of a resident line without promoting it; -1 if absent."""
        cset = self.sets[line_addr & self.active_set_mask]
        way = cset.tag_map.get(line_addr, -1)
        if way < 0:
            return -1
        return cset.order.index(way)

    def invalidate_line(self, g: int) -> tuple[int | None, bool]:
        """Drop the line at global index ``g`` (tag map kept in sync).

        Returns ``(evicted_tag, was_dirty)``.  This is the shared
        uncorrectable-loss path used by the ECC-extended refresh engine
        and the fault injector: the line's tag is removed from its set,
        the valid/dirty mirrors are cleared, and the phase-window stamp is
        reset so polyphase refresh policies stop tracking it.  The way's
        recency position is left alone -- an invalid way already wins
        victim arbitration.
        """
        a = self.associativity
        cset = self.sets[g // a]
        tag = cset.drop_way(g % a)
        state = self.state
        was_dirty = bool(state.dirty[g])
        state.valid[g] = False
        state.dirty[g] = False
        state.last_window[g] = -1
        return tag, was_dirty

    def invalidate_all(self) -> None:
        """Drop every line (no writebacks; test helper)."""
        for cset in self.sets:
            for way in range(self.associativity):
                cset.tags[way] = None
            cset.tag_map.clear()
        self.state.valid[:] = False
        self.state.dirty[:] = False
        self.state.last_window[:] = -1

    # ------------------------------------------------------------------
    # Bulk tag/recency export-import (batch classification kernel)
    # ------------------------------------------------------------------

    def export_batch_state(self, set_indices) -> tuple:
        """Snapshot per-set tag/recency/dirty state as dense matrices.

        Parameters
        ----------
        set_indices:
            int64 array of distinct set indices (ascending), typically the
            sets touched by one classification batch.

        Returns
        -------
        tuple
            ``(tags_mat, ts0_mat, dirty_mat)``, each of shape
            ``(len(set_indices), associativity)``:

            * ``tags_mat`` -- stored line addresses, ``-1`` for invalid
              ways (line addresses are non-negative, so the sentinel is
              unambiguous);
            * ``ts0_mat`` -- synthetic last-access timestamps encoding the
              current recency order: way at recency position ``p`` gets
              ``-(1 + p)``, so MRU is the largest and every value is
              distinct.  Real (non-negative) record indices written over
              these preserve relative order under an ``argsort``;
            * ``dirty_mat`` -- the dirty bits (a copy; the kernel tracks
              eviction-time dirtiness without touching live state).

        Raises ``AssertionError`` if the tag matrix disagrees with the
        ``LineState.valid`` mirror -- the kernel classifies against this
        export, so a desync here must fail loudly, not corrupt results.
        """
        sets = self.sets
        a = self.associativity
        rows = np.asarray(set_indices, dtype=np.int64)
        t_count = rows.shape[0]
        touched = [sets[s] for s in rows.tolist()]
        # Tag matrix from the per-set tag maps: one C-level fromiter pass
        # over chained dict iterators instead of a Python list per set.
        n_res = np.fromiter(
            (len(c.tag_map) for c in touched), np.int64, count=t_count
        )
        total = int(n_res.sum())
        res_tags = np.fromiter(
            chain.from_iterable(c.tag_map for c in touched),
            np.int64,
            count=total,
        )
        res_ways = np.fromiter(
            chain.from_iterable(c.tag_map.values() for c in touched),
            np.int64,
            count=total,
        )
        tags_mat = np.full((t_count, a), -1, dtype=np.int64)
        tags_mat[np.repeat(np.arange(t_count), n_res), res_ways] = res_tags
        # Recency seeds from the order lists, same single-pass trick.
        order_mat = np.fromiter(
            chain.from_iterable(c.order for c in touched),
            np.int64,
            count=t_count * a,
        ).reshape(t_count, a)
        ts0_mat = np.empty((t_count, a), dtype=np.int32)
        np.put_along_axis(
            ts0_mat,
            order_mat,
            -(1 + np.arange(a, dtype=np.int32))[None, :],
            axis=1,
        )
        valid_mat = self.state.valid.reshape(self.num_sets, a)[rows]
        if ((tags_mat != -1) != valid_mat).any():
            raise AssertionError(
                f"{self.name}: tag/valid mirror desync in batch export"
            )
        dirty_mat = self.state.dirty.reshape(self.num_sets, a)[rows].copy()
        return tags_mat, ts0_mat, dirty_mat

    def import_batch_state(self, set_indices, tags_mat, order_mat) -> None:
        """Install the touched sets' post-batch tags and recency orders.

        ``tags_mat`` holds each row's stored line addresses (``-1`` for
        an invalid way), as :meth:`export_batch_state` lays them out, and
        ``order_mat`` one way-permutation per row (most-recently-used
        first); each set gets its ``tags``, ``tag_map`` and ``order``
        back from them.  The whole buffer is validated before any set is
        touched -- every recency row must be a permutation, and every tag
        row must agree with the ``LineState.valid`` mirror -- so a bad
        reconstruction cannot half-apply.
        """
        a = self.associativity
        rows = np.asarray(set_indices, dtype=np.int64)
        tags_mat = np.asarray(tags_mat)
        order_mat = np.asarray(order_mat)
        bad = (np.sort(order_mat, axis=1) != np.arange(a)).any(axis=1)
        if bad.any():
            raise AssertionError(
                f"{self.name}: imported recency row for set "
                f"{int(rows[bad.argmax()])} is not a permutation of {a} ways"
            )
        valid_mat = self.state.valid.reshape(self.num_sets, a)[rows]
        bad = ((tags_mat != -1) != valid_mat).any(axis=1)
        if bad.any():
            raise AssertionError(
                f"{self.name}: imported tag row for set "
                f"{int(rows[bad.argmax()])} disagrees with the valid mirror"
            )
        sets = self.sets
        ways = range(a)
        for s, tags, order in zip(
            rows.tolist(), tags_mat.tolist(), order_mat.tolist()
        ):
            cset = sets[s]
            if -1 in tags:
                cset.tag_map = {t: w for w, t in enumerate(tags) if t != -1}
                tags = [None if t == -1 else t for t in tags]
            else:
                cset.tag_map = dict(zip(tags, ways))
            cset.tags = tags
            cset.order = order

    # ------------------------------------------------------------------
    # Warm-image clone (fast construction path)
    # ------------------------------------------------------------------

    @classmethod
    def from_image(
        cls,
        geometry: CacheGeometry,
        image: tuple,
        name: str = "cache",
    ) -> "SetAssociativeCache":
        """A cache in its post-construction shape holding ``image``.

        ``image`` is ``(tags_rows, tag_maps, valid, dirty, last_window)``:
        per-set ``tags`` lists and ``tag_map`` dicts plus the line-state
        arrays.  Every way is active, recency order is untouched and no
        set is a leader.  Cloning per-set lists and dicts is several times
        cheaper than filling a cache line by line, which matters when a
        sweep builds many systems over the same geometry.  The clone
        shares nothing mutable with the image.
        """
        self = cls.__new__(cls)
        self.geometry = geometry
        self.name = name
        s = geometry.num_sets
        a = geometry.associativity
        self.num_sets = s
        self.associativity = a
        self.set_mask = s - 1
        self.active_set_mask = s - 1
        self.set_bits = geometry.set_index_bits
        tags_rows, maps, valid, dirty, last_window = image
        order_proto = list(range(a))
        sets = []
        append = sets.append
        new_set = CacheSet.__new__
        for index, row, tag_map in zip(
            range(s), map(list.copy, tags_rows), map(dict.copy, maps)
        ):
            cset = new_set(CacheSet)
            cset.index = index
            cset.base = index * a
            cset.tags = row
            cset.tag_map = tag_map
            cset.order = order_proto.copy()
            cset.n_active = a
            cset.is_leader = False
            append(cset)
        self.sets = sets
        state = LineState.__new__(LineState)
        state.num_sets = s
        state.associativity = a
        state.valid = valid.copy()
        state.dirty = dirty.copy()
        state.last_window = last_window.copy()
        state.active = np.ones(s * a, dtype=bool)
        self.state = state
        self.stats = CacheStats(hits_by_position=[0] * a)
        self.module_of_set = None
        self.profile_hist = None
        self.write_counts = None
        self.drowsy_flag = False
        return self

    def check_invariants(self) -> None:
        """Full-state consistency check (used by property tests)."""
        for cset in self.sets:
            cset.check_invariants(self.state, self.gated_ways_retain_data)

    def resident_lines(self) -> list[int]:
        """All resident line addresses (test helper)."""
        out = []
        for cset in self.sets:
            for tag in cset.tags:
                if tag is not None:
                    out.append(tag)
        return out
