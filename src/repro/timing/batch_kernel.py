"""Vectorised batch classification kernel for quiescent L2 segments.

Between maintenance events the shared L2 is *quiescent*: no
reconfiguration, decay, selective-sets change, or refresh-driven
invalidation can occur, so the hit/miss outcome, recency position, fill
victim, and writeback of every upcoming access are a pure function of the
current per-set state and the access sequence itself -- none of it
depends on cycle timing.  This module precomputes all of that with NumPy
(:func:`classify`), and :class:`BatchBuffer` packages the result for the
slim commit loop in :meth:`System._run_fast
<repro.timing.system.System._run_fast>`, which replays the classification
to update cycle accounting, stats, and live line state bit-for-bit
identically to the scalar loop.  The fast loop serves one or two cores;
the kernel engages only when it runs one.

Eligibility (the quiescence predicate) is enforced by the caller; the
contract this kernel relies on is:

* single core (multi-core record interleaving is cycle-dependent, so
  outcomes cannot be precomputed), core address offset 0;
* every set has all ways active (``n_active == associativity``) and the
  full set mask is live -- so victim arbitration is the plain full-set
  LRU the timestamp matrix models, and drowsy hits are impossible;
* the refresh engine never mutates tags/valid/dirty/recency at
  boundaries (``RefreshEngine.mutates_cache_state`` is False).  Engines
  that merely *read* line state mid-buffer (RPV reads ``valid`` and
  ``last_window``; periodic-valid reads ``valid``) stay accurate because
  the commit loop keeps valid/dirty/``last_window``/tags live per
  record -- only the recency ``order`` lists are deferred to buffer
  retirement, and no maintenance path reads those;
* the buffer is retired (recency orders written back via
  :meth:`SetAssociativeCache.import_recency_orders
  <repro.cache.cache.SetAssociativeCache.import_recency_orders>`)
  *before* any mutating maintenance runs: the interval controller
  (ESTEEM / selective-sets) at interval closes and the fault injector at
  refresh boundaries.  The caller encodes those as ``limit_cycle``.

Classification walks the batch column-by-column: records are grouped by
set with one stable argsort, then step ``t`` processes the ``t``-th
record of every still-active set with pure 1-D gathers -- per-set state
lives in dense ``(touched_sets, ways)`` matrices, so memory stays
bounded by the touched-set count rather than ``sets x max_records``.
Recency is a timestamp matrix: way last touched at batch-local record
``j`` holds ``j``; untouched ways keep distinct negative seeds encoding
the pre-batch order (:meth:`SetAssociativeCache.export_batch_state`),
so LRU victim = row argmin and hit position = count of larger stamps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BatchBuffer", "MIN_BATCH_RECORDS", "build_batch"]

#: Below this many records the fixed cost of grouping + export outweighs
#: the per-record savings; the caller stays on the scalar loop.
MIN_BATCH_RECORDS = 512

#: Skew guard: if one set owns more than this many records of a batch,
#: the column-stepping loop degenerates towards per-record NumPy-call
#: overhead; fall back to the scalar loop for that stretch instead.
MAX_SET_RECORDS = 8192


class BatchBuffer:
    """Classification results for trace records ``[start, end)``.

    The commit loop consumes the list views (one index per record); the
    NumPy views back the per-chunk counter folds (prefix sums, bincount
    histograms) and the retirement-time recency reconstruction.
    """

    __slots__ = (
        "start",
        "end",
        "n",
        "limit_cycle",
        "uniq_sets",
        "ts_mat",
        "ts0_mat",
        "row_np",
        "way_np",
        "hit_np",
        "pos_np",
        "wb_np",
        "hits_cum",
        "pf_np",
        "g_list",
        "miss_data",
        "miss_ptr",
    )

    def __init__(self, start, end, limit_cycle):
        self.start = start
        self.end = end
        self.n = end - start
        self.limit_cycle = limit_cycle
        self.miss_ptr = 0

    def recency_orders(self, committed: int):
        """Recency orders for the sets touched by the first ``committed``
        records, as ``(set_indices, order_matrix)`` ready for
        ``import_recency_orders``.

        For a fully-committed buffer the final timestamp matrix is used
        directly.  For a partial commit the timestamps are rebuilt from
        the seeds plus a max-scatter of the committed record indices --
        a later access always carries a larger index, so ``maximum.at``
        over duplicate ways reproduces last-access-wins exactly.
        """
        if committed >= self.n:
            ts = self.ts_mat
            rows = None
        else:
            ts = self.ts0_mat.copy()
            a = ts.shape[1]
            flat = ts.reshape(-1)
            lin = self.row_np[:committed] * a + self.way_np[:committed]
            np.maximum.at(flat, lin, np.arange(committed, dtype=ts.dtype))
            rows = np.unique(self.row_np[:committed])
        if rows is None:
            return self.uniq_sets, np.argsort(-ts, axis=1)
        return self.uniq_sets[rows], np.argsort(-ts[rows], axis=1)


def classify(addrs, writes, perm, tags_mat, ts_mat, dirty_mat, starts, counts):
    """Classify every record of a quiescent batch in bulk.

    ``perm``/``starts``/``counts`` describe the stable grouping of the
    records by set (``perm`` sorts records set-major, ``starts[r]`` is
    row ``r``'s first position in that sorted view).
    ``tags_mat``/``ts_mat``/``dirty_mat`` are the live-state export for
    the touched sets and are updated in place to the post-batch state.
    Returns per-record arrays ``(hit, way, pos, old_tag, wb)``:

    * ``hit`` -- tag present at access time;
    * ``way`` -- the way hit, or the fill victim chosen exactly as the
      scalar loop does (first invalid way if any, else the LRU way);
    * ``pos`` -- recency position of a hit (0 = MRU), ``-1`` on a miss;
    * ``old_tag`` -- evicted line address, ``-1`` when the fill took an
      invalid way;
    * ``wb`` -- the eviction hit a dirty line (posted writeback).
    """
    n = addrs.shape[0]
    hit = np.zeros(n, dtype=bool)
    way = np.zeros(n, dtype=np.int32)
    pos = np.full(n, -1, dtype=np.int32)
    old_tag = np.full(n, -1, dtype=np.int64)
    wb = np.zeros(n, dtype=bool)

    # Rows ordered by descending record count: at step t the active rows
    # are exactly a shrinking prefix.  Permuting the per-set state into
    # that order ONCE turns the per-step row gather into a free
    # contiguous-prefix view; the result is scattered back at the end.
    desc = np.argsort(-counts, kind="stable")
    counts_desc = counts[desc]
    starts_desc = starts[desc]
    neg_counts = -counts_desc
    max_count = int(counts_desc[0])
    wt = tags_mat[desc]
    ws = ts_mat[desc]
    wd = dirty_mat[desc]
    am = np.arange(desc.shape[0])

    for t in range(max_count):
        m = int(np.searchsorted(neg_counts, -t, side="left"))
        j = perm[starts_desc[:m] + t]
        adr = addrs[j]
        tr = wt[:m]
        tsr = ws[:m]
        eq = tr == adr[:, None]
        w = eq.argmax(axis=1)
        amv = am[:m]
        ht = eq[amv, w]
        # Hit position = number of more-recent ways (computed for every
        # row; miss rows carry garbage that is simply never read).
        tsv = tsr[amv, w]
        pv = (tsr > tsv[:, None]).sum(axis=1, dtype=np.int32)

        hi = np.flatnonzero(ht)
        if hi.size:
            wh = w[hi]
            jh = j[hi]
            hit[jh] = True
            way[jh] = wh
            pos[jh] = pv[hi]
            ws[hi, wh] = jh
            dw = writes[jh]
            if dw.any():
                wd[hi[dw], wh[dw]] = True

        # Misses: first invalid way if any, else LRU (min timestamp) --
        # exactly the scalar loop's full-set/invalid-way arbitration.
        mi = np.flatnonzero(~ht)
        if mi.size:
            jm = j[mi]
            trm = tr[mi]
            inv = trm == -1
            wi = inv.argmax(axis=1)
            ami = am[: mi.size]
            has_inv = inv[ami, wi]
            vic = np.where(has_inv, wi, tsr[mi].argmin(axis=1))
            ot = trm[ami, vic]
            wbm = (ot != -1) & wd[mi, vic]
            way[jm] = vic
            old_tag[jm] = ot
            wb[jm] = wbm
            wt[mi, vic] = adr[mi]
            ws[mi, vic] = jm
            wd[mi, vic] = writes[jm]

    tags_mat[desc] = wt
    ts_mat[desc] = ws
    dirty_mat[desc] = wd
    return hit, way, pos, old_tag, wb


def build_batch(
    l2,
    trace,
    start,
    end,
    limit_cycle,
    leader_np=None,
    module_np=None,
):
    """Classify trace records ``[start, end)`` against the live cache.

    Returns a ready-to-commit :class:`BatchBuffer`, or ``None`` when the
    stretch is too small or too set-skewed to win over the scalar loop
    (the caller falls back for this chunk and may retry later).
    ``leader_np``/``module_np`` enable the ATD profile-histogram fold
    (``None`` when no profiler is attached).
    """
    n = end - start
    if n < MIN_BATCH_RECORDS:
        return None
    addrs = trace.addrs[start:end]
    writes = trace.writes[start:end]
    set_idx = trace.set_index_column(l2.set_mask)[start:end]

    # Stable argsort on a uint16 key hits NumPy's radix path -- ~5x
    # faster than sorting the int64 column for the common geometry.
    if l2.num_sets <= 0x10000:
        sort_key = set_idx.astype(np.uint16)
    else:
        sort_key = set_idx
    order = np.argsort(sort_key, kind="stable")
    ss = set_idx[order]
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(ss[1:], ss[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    uniq = ss[starts]
    counts = np.diff(np.append(starts, n))
    if int(counts.max()) > MAX_SET_RECORDS:
        return None

    a = l2.associativity
    tags_mat, ts0_mat, dirty_mat = l2.export_batch_state(uniq)
    ts_mat = ts0_mat.copy()
    hit, way, pos, old_tag, wb = classify(
        addrs, writes, order, tags_mat, ts_mat, dirty_mat, starts, counts,
    )

    kb = BatchBuffer(start, end, limit_cycle)
    kb.uniq_sets = uniq
    kb.ts_mat = ts_mat
    kb.ts0_mat = ts0_mat
    # Row index per record, recovered from the grouping itself (a cumsum
    # over the change flags, unsorted via one scatter) -- much cheaper
    # than a searchsorted of every record against ``uniq``.
    rows_sorted = np.cumsum(change) - 1
    row_np = np.empty(n, dtype=np.int64)
    row_np[order] = rows_sorted
    kb.row_np = row_np
    kb.way_np = way
    kb.hit_np = hit
    kb.pos_np = pos
    kb.wb_np = wb
    # Prefix sums (leading zero) let a chunk fold its hit/miss/writeback
    # deltas in O(1) regardless of chunk length.
    hits_cum = np.empty(n + 1, dtype=np.int64)
    hits_cum[0] = 0
    np.add.accumulate(hit, dtype=np.int64, out=hits_cum[1:])
    kb.hits_cum = hits_cum
    if leader_np is not None:
        lead = leader_np[set_idx] & hit
        kb.pf_np = np.where(lead, module_np[set_idx] * a + pos, -1)
    else:
        kb.pf_np = None

    # Commit-loop views: ``g_list[j]`` is the global line index touched
    # by hit record ``j`` (base + way), or ``-(set_index + 1)`` on a miss
    # so the loop can branch on sign and still recover the set.
    g = set_idx * a + way
    kb.g_list = np.where(hit, g, -(set_idx.astype(np.int64) + 1)).tolist()
    miss = ~hit
    kb.miss_data = list(
        zip(
            g[miss].tolist(),
            way[miss].tolist(),
            old_tag[miss].tolist(),
            wb[miss].tolist(),
        )
    )
    return kb
