"""Unit tests for the batch kernel's bulk state export/import helpers.

``export_batch_state`` snapshots per-set tag/recency/dirty state as dense
matrices for vectorised classification; ``import_batch_state`` installs
the post-batch tags, tag maps and recency orders at buffer retirement.
Both must fail loudly (AssertionError) on inconsistent state rather than
let the kernel classify against -- or write back -- garbage.
"""

import numpy as np
import pytest

from repro.cache.cache import SetAssociativeCache


@pytest.fixture
def cache(tiny_geometry) -> SetAssociativeCache:
    return SetAssociativeCache(tiny_geometry, name="L2batch")


def _fill_set(cache, set_index, tags, writes=()):
    for t in tags:
        cache.access(cache.line_addr(set_index, t), t in writes)


class TestExportBatchState:
    def test_matrices_mirror_live_state(self, cache):
        a = cache.associativity
        _fill_set(cache, 3, [10, 11, 12], writes={11})
        _fill_set(cache, 7, [20])
        sets = np.array([3, 7], dtype=np.int64)
        tags_mat, ts0_mat, dirty_mat = cache.export_batch_state(sets)
        assert tags_mat.shape == (2, a)

        # Row 0: ways 0..2 hold the three lines, way 3 is invalid.
        for way, t in enumerate([10, 11, 12]):
            assert tags_mat[0, way] == cache.line_addr(3, t)
        assert tags_mat[0, 3] == -1
        assert tags_mat[1, 0] == cache.line_addr(7, 20)
        assert (tags_mat[1, 1:] == -1).all()

        # Dirty bit for the written line only.
        assert dirty_mat[0, 1]
        assert not dirty_mat[0, 0] and not dirty_mat[0, 2]

    def test_timestamp_seeds_encode_recency_order(self, cache):
        _fill_set(cache, 3, [10, 11, 12])
        cache.access(cache.line_addr(3, 10), False)  # 10 back to MRU
        sets = np.array([3], dtype=np.int64)
        _tags, ts0, _dirty = cache.export_batch_state(sets)
        # MRU first: argsort descending must reproduce the order list.
        reconstructed = list(np.argsort(-ts0[0]))
        assert reconstructed == cache.sets[3].order
        # Seeds are distinct negatives so real record indices (>= 0)
        # always rank above every untouched way.
        assert len(set(ts0[0].tolist())) == ts0.shape[1]
        assert (ts0 < 0).all()

    def test_desynced_valid_mirror_fails_loudly(self, cache):
        _fill_set(cache, 3, [10])
        g = cache.state.gidx(3, 0)
        cache.state.valid[g] = False  # corrupt the mirror
        with pytest.raises(AssertionError):
            cache.export_batch_state(np.array([3], dtype=np.int64))


def _set_state(cache, sets):
    return [
        (list(c.tags), dict(c.tag_map), list(c.order))
        for c in (cache.sets[s] for s in sets)
    ]


class TestImportRecencyOrders:
    """The recency half of ``import_batch_state``."""

    def test_round_trip_preserves_orders(self, cache):
        _fill_set(cache, 3, [10, 11, 12])
        _fill_set(cache, 7, [20, 21])
        before = _set_state(cache, (3, 7))
        sets = np.array([3, 7], dtype=np.int64)
        tags, ts0, _dirty = cache.export_batch_state(sets)
        cache.import_batch_state(sets, tags, np.argsort(-ts0, axis=1))
        assert _set_state(cache, (3, 7)) == before
        for s in (3, 7):
            cache.sets[s].check_invariants(cache.state)

    def test_new_order_is_installed(self, cache):
        _fill_set(cache, 3, [10, 11, 12, 13])
        sets = np.array([3], dtype=np.int64)
        tags, _ts0, _dirty = cache.export_batch_state(sets)
        cache.import_batch_state(sets, tags, np.array([[2, 0, 3, 1]]))
        assert cache.sets[3].order == [2, 0, 3, 1]
        # LRU victim is now way 1 (last in the installed order).
        evicted = cache.sets[3].tags[1]
        new = cache.line_addr(3, 14)
        assert cache.access(new, False) == (False, -1, -1)
        assert cache.sets[3].tags[1] == new
        assert not cache.contains(evicted)

    def test_bad_permutation_rejected_and_names_set(self, cache):
        _fill_set(cache, 3, [10])
        _fill_set(cache, 7, [20])
        sets = np.array([3, 7], dtype=np.int64)
        tags, _ts0, _dirty = cache.export_batch_state(sets)
        before = _set_state(cache, (3, 7))
        orders = np.array([[1, 0, 2, 3], [0, 0, 2, 3]])  # row 1 malformed
        with pytest.raises(AssertionError, match="set 7"):
            cache.import_batch_state(sets, tags, orders)
        # Nothing half-applied: set 3's order is untouched.
        assert _set_state(cache, (3, 7)) == before
        cache.sets[3].check_invariants(cache.state)


class TestImportBatchState:
    """The tag half: rows come back as ``tags`` lists and ``tag_map``
    dicts, checked against the ``valid`` mirror first."""

    def test_post_batch_tags_are_installed(self, cache):
        # A batch that filled set 3's invalid way 1 and replaced way 0's
        # line: the commit loop already set way 1's valid bit.
        _fill_set(cache, 3, [10])
        sets = np.array([3], dtype=np.int64)
        tags, _ts0, _dirty = cache.export_batch_state(sets)
        new0, new1 = cache.line_addr(3, 30), cache.line_addr(3, 31)
        tags[0, :2] = [new0, new1]
        cache.state.valid[cache.state.gidx(3, 1)] = True
        cache.import_batch_state(sets, tags, np.array([[1, 0, 2, 3]]))
        cset = cache.sets[3]
        assert cset.tags == [new0, new1, None, None]
        assert cset.tag_map == {new0: 0, new1: 1}
        assert cset.order == [1, 0, 2, 3]
        cset.check_invariants(cache.state)
        assert cache.access(new1, False) == (True, 0, -1)

    def test_desynced_row_rejected_and_no_set_changes(self, cache):
        _fill_set(cache, 3, [10, 11])
        _fill_set(cache, 7, [20])
        sets = np.array([3, 7], dtype=np.int64)
        tags, ts0, _dirty = cache.export_batch_state(sets)
        before = _set_state(cache, (3, 7))
        # Row 0 is consistent (a new line in a valid way); row 1 claims a
        # line in way 2, which the valid mirror says is invalid.
        tags[0, 0] = cache.line_addr(3, 12)
        tags[1, 2] = cache.line_addr(7, 22)
        with pytest.raises(AssertionError, match="set 7"):
            cache.import_batch_state(sets, tags, np.argsort(-ts0, axis=1))
        assert _set_state(cache, (3, 7)) == before
