"""Vectorised batch classification kernel for controller-free L2 runs.

With no interval controller and no fault injector, nothing between the
first record and the end of a single-core trace pass can reconfigure,
gate, decay or invalidate the shared L2, so the hit/miss outcome, recency
position, fill victim and writeback of every access are a pure function
of the starting per-set state and the access sequence itself -- none of
it depends on cycle timing.  This module precomputes all of that with
NumPy (:func:`classify`), and :class:`BatchBuffer` packages the result,
one int per record, for the slim commit loop in :meth:`System._run_fast
<repro.timing.system.System._run_fast>`, which replays the
classification to update cycle accounting, stats, and live line state
bit-for-bit identically to the scalar loop.

Eligibility is decided once per run.  The caller's static half:

* one core (multi-core record interleaving is cycle-dependent, so
  outcomes cannot be precomputed), core address offset 0;
* no interval controller (ESTEEM, drowsy ESTEEM, selective-sets) -- so
  every set keeps all ways active and the full set mask stays live,
  victim arbitration is the plain full-set LRU the timestamp matrix
  models, and drowsy hits are impossible;
* no fault injector, and a refresh engine that never mutates
  tags/valid/dirty/recency (``RefreshEngine.mutates_cache_state`` is
  False).  Engines that merely *read* line state mid-run (RPV reads
  ``valid`` and ``last_window``; periodic-valid reads ``valid``) stay
  accurate because the commit loop keeps valid/dirty/``last_window``
  live per record in the NumPy line state -- the per-set ``tags``,
  ``tag_map`` and recency ``order`` lists are deferred, and with no
  controller, injector or mutating engine nothing reads them mid-pass;
* no per-line write counts and no write penalty (technology runs).

The dynamic half is :func:`build_batch`'s: it classifies the whole rest
of the pass in one build, or declines, and a declined run stays scalar.
A build exports ``a * U`` line entries (tags, dirty bits, recency) for
the ``U`` touched sets of an ``a``-way cache and writes ``U`` tag and
recency rows back, so a pass of fewer than ``a * U`` records cannot
amortise it and is declined.  An accepted buffer is retired exactly
once: the commit loop writes the touched sets' tags, tag maps and
recency orders back from the post-batch matrices (via
:meth:`SetAssociativeCache.import_batch_state
<repro.cache.cache.SetAssociativeCache.import_batch_state>`) when it
reaches the end of the trace, before the wrap ends the run.

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

#: Below this many records in the pass, the fixed cost of grouping +
#: export outweighs the per-record savings; the run stays scalar.
MIN_BATCH_RECORDS = 512

#: Skew guard: if one set owns more than this many records of the pass,
#: the column-stepping loop degenerates towards per-record NumPy-call
#: overhead; the whole run stays scalar instead.
MAX_SET_RECORDS = 8192


class BatchBuffer:
    """Classification results for trace records ``[start, end)``.

    The commit loop reads one int per record from ``codes``: a hit
    stores the global line index ``g = set * a + way`` (``>= 0``), a
    miss stores ``-1 - (g << 2 | writeback << 1 | eviction)``, where
    ``g`` is the filled line, ``eviction`` says the fill displaced a
    valid line and ``writeback`` that the line was dirty.  The NumPy
    views back the per-stint counter folds (prefix sums, the
    hit-position histogram) and the retirement-time import of the
    touched sets' tags and recency.
    """

    __slots__ = (
        "start",
        "end",
        "uniq_sets",
        "tags_mat",
        "ts_mat",
        "pos_np",
        "hits_cum",
        "codes",
    )

    def __init__(self, start, end):
        self.start = start
        self.end = end

    def batch_state(self):
        """Post-batch state of the touched sets, as ``(set_indices,
        tags_mat, order_mat)`` ready for ``import_batch_state``: the
        final tag matrix and the recency orders of the final timestamp
        matrix, most recent way first."""
        return self.uniq_sets, self.tags_mat, np.argsort(-self.ts_mat, axis=1)


def classify(addrs, writes, perm, tags_mat, ts_mat, dirty_mat, starts, counts):
    """Classify every record of a quiescent batch in bulk.

    ``perm``/``starts``/``counts`` describe the stable grouping of the
    records by set (``perm`` sorts records set-major, ``starts[r]`` is
    row ``r``'s first position in that sorted view).
    ``tags_mat``/``ts_mat``/``dirty_mat`` are the live-state export for
    the touched sets and are updated in place to the post-batch state.
    Returns per-record arrays ``(hit, way, pos, code)``:

    * ``hit`` -- tag present at access time;
    * ``way`` -- the way hit, or the fill victim chosen exactly as the
      scalar loop does (first invalid way if any, else the LRU way);
    * ``pos`` -- recency position of a hit (0 = MRU), ``-1`` on a miss;
    * ``code`` -- on a miss, ``1`` when the fill evicted a valid line,
      ``3`` when that line was dirty (posted writeback), ``0`` when it
      took an invalid way; ``0`` on a hit.
    """
    n = addrs.shape[0]
    hit = np.zeros(n, dtype=bool)
    way = np.zeros(n, dtype=np.int32)
    pos = np.full(n, -1, dtype=np.int32)
    code = np.zeros(n, dtype=np.int8)

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
        eq = tr == adr[:, None]
        w = eq.argmax(axis=1)
        ht = eq[am[:m], w]

        hi = np.flatnonzero(ht)
        if hi.size:
            wh = w[hi]
            jh = j[hi]
            # Hit position = number of more-recent ways.
            tsh = ws[hi]
            hit[jh] = True
            way[jh] = wh
            pos[jh] = (tsh > tsh[am[: hi.size], wh][:, None]).sum(
                axis=1, dtype=np.int32
            )
            ws[hi, wh] = jh
            dw = writes[jh]
            if dw.any():
                wd[hi[dw], wh[dw]] = True

        # Misses: first invalid way if any, else LRU (min timestamp) --
        # exactly the scalar loop's full-set/invalid-way arbitration.
        mi = np.flatnonzero(~ht)
        if mi.size:
            jm = j[mi]
            inv = tr[mi] == -1
            wi = inv.argmax(axis=1)
            ev = ~inv[am[: mi.size], wi]
            vic = np.where(ev, ws[mi].argmin(axis=1), wi)
            way[jm] = vic
            code[jm] = ev | (ev & wd[mi, vic]) << 1
            wt[mi, vic] = adr[mi]
            ws[mi, vic] = jm
            wd[mi, vic] = writes[jm]

    tags_mat[desc] = wt
    ts_mat[desc] = ws
    dirty_mat[desc] = wd
    return hit, way, pos, code


def build_batch(l2, trace, start, end):
    """Classify trace records ``[start, end)`` -- the rest of the pass,
    in one build -- against the live cache.

    Returns a ready-to-commit :class:`BatchBuffer`, whose ``codes`` list
    carries each record's outcome in one int -- the line a hit touches,
    or the line a miss fills with its eviction and writeback bits -- so
    the commit loop needs no per-miss tuple and no tag bookkeeping.
    Returns ``None`` when the pass cannot win over the scalar loop,
    which then runs all of it: too short, too set-skewed, or too sparse
    -- fewer records than the ``associativity x U`` line entries the
    export copies for the ``U`` sets it touches.
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
    a = l2.associativity
    if n < a * starts.size:
        return None
    uniq = ss[starts]
    counts = np.diff(np.append(starts, n))
    if int(counts.max()) > MAX_SET_RECORDS:
        return None

    # The export is a fresh copy, so classify() may advance it in place.
    tags_mat, ts_mat, dirty_mat = l2.export_batch_state(uniq)
    hit, way, pos, code = classify(
        addrs, writes, order, tags_mat, ts_mat, dirty_mat, starts, counts,
    )

    kb = BatchBuffer(start, end)
    kb.uniq_sets = uniq
    kb.tags_mat = tags_mat
    kb.ts_mat = ts_mat
    kb.pos_np = pos
    # Prefix sums (leading zero) let a stint fold its hit/miss deltas in
    # O(1) regardless of stint length.
    hits_cum = np.empty(n + 1, dtype=np.int64)
    hits_cum[0] = 0
    np.add.accumulate(hit, dtype=np.int64, out=hits_cum[1:])
    kb.hits_cum = hits_cum
    # The commit loop's one int per record (see BatchBuffer).
    g = set_idx * a + way
    kb.codes = np.where(hit, g, -1 - (g << 2 | code)).tolist()
    return kb
