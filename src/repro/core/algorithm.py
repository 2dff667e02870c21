"""Algorithm 1: the ESTEEM energy-saving algorithm (system S11).

A line-faithful reimplementation of the paper's Algorithm 1.  For each
module:

1. *Non-LRU detection* (lines 4-13): count "anomalies" -- recency positions
   where the hit count *increases* with decreasing recency
   (``nL2Hit[m][i] < nL2Hit[m][i+1]``).  A module with at least ``A/4``
   anomalies is flagged non-LRU, and at most one way will be turned off in
   it (Section 3.1: omnetpp/xalancbmk-style behaviour).
2. *Way-count selection* (lines 14-26): accumulate hits over recency
   positions and keep the smallest prefix of ways covering at least
   ``alpha`` of the module's hits, floored at ``A_min`` (or ``A-1`` for a
   non-LRU module).

Worked example from Section 3.1: hits {10816, 4645, 2140, 501, 217, 113,
63, 11} over 8 ways give H=18506; alpha=0.97 keeps 4 ways, alpha=0.95
keeps 3 (verified in ``tests/core/test_algorithm.py``).

:class:`IntervalDecision`, the controller's record of one interval, lives
here too: results carry it, and decoding them needs no simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

__all__ = ["AlgorithmDecision", "IntervalDecision", "esteem_decide"]


@dataclass(frozen=True)
class AlgorithmDecision:
    """Output of one run of Algorithm 1."""

    #: nActiveWay[m]: ways to keep powered on in each module.
    n_active_way: tuple[int, ...]
    #: Whether each module was flagged non-LRU this interval.
    non_lru: tuple[bool, ...]
    #: Accumulated hit totals per module (diagnostics).
    module_hits: tuple[int, ...]


@dataclass(frozen=True)
class IntervalDecision:
    """Record of one interval's reconfiguration (drives Figure 2).

    Both interval controllers write it: ESTEEM (selective-ways) and the
    selective-sets alternative.  ``transitions`` is the interval's N_L,
    which the owning system charges to the closing interval's energy.
    """

    interval_index: int
    cycle: int
    #: ESTEEM: the ways each module keeps on.  Selective-sets: a single
    #: entry, Algorithm 1's way count for its one module, which the
    #: controller rounds to a power-of-two set count (``active_fraction``).
    n_active_way: tuple[int, ...]
    #: Algorithm 1's non-LRU flag per module.
    non_lru: tuple[bool, ...]
    active_fraction: float
    transitions: int
    flush_writebacks: int
    clean_discards: int


def esteem_decide(
    n_l2_hit: Sequence[Sequence[int]],
    a_min: int,
    alpha: float,
    associativity: int | None = None,
    nonlru_guard: bool = True,
) -> AlgorithmDecision:
    """Run Algorithm 1 on the interval's hit histograms.

    Parameters
    ----------
    n_l2_hit:
        ``nL2Hit[0:M][0:A]`` -- hits at each recency position per module.
    a_min:
        Minimum number of ways always kept on.
    alpha:
        Hit-coverage threshold (< 1).
    associativity:
        ``A``; inferred from the histogram width when omitted.
    nonlru_guard:
        Disables the non-LRU detection when False (ablation only).

    Returns
    -------
    AlgorithmDecision
        Per-module active-way counts and non-LRU flags.
    """
    if not n_l2_hit:
        raise ValueError("need at least one module histogram")
    a = associativity if associativity is not None else len(n_l2_hit[0])
    if a < 1:
        raise ValueError("associativity must be at least 1")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    if not 1 <= a_min <= a:
        raise ValueError("a_min must be in [1, A]")

    n_active: list[int] = []
    non_lru_flags: list[bool] = []
    totals: list[int] = []

    for m, hits in enumerate(n_l2_hit):
        if len(hits) != a:
            raise ValueError(f"module {m} histogram has wrong width")
        if any(h < 0 for h in hits):
            raise ValueError(f"module {m} histogram has negative counts")

        # Lines 4-13: non-LRU detection.
        is_non_lru = False
        if nonlru_guard:
            anomalies = 0
            for i in range(a - 1):
                if hits[i] < hits[i + 1]:
                    anomalies += 1
            if anomalies >= a / 4:
                is_non_lru = True

        # Lines 14-26: accumulate hits; keep the smallest alpha-covering
        # prefix of ways.
        accumulated = 0
        total = sum(hits)
        chosen = a  # fallback; the loop always fires at i = A-1
        for i in range(a):
            accumulated += hits[i]
            if accumulated >= alpha * total:
                chosen = max(a_min, i + 1)
                if is_non_lru:
                    # Line 22: for a non-LRU module at most one way is
                    # turned off.
                    chosen = max(a - 1, i + 1)
                break

        n_active.append(chosen)
        non_lru_flags.append(is_non_lru)
        totals.append(total)

    return AlgorithmDecision(
        n_active_way=tuple(n_active),
        non_lru=tuple(non_lru_flags),
        module_hits=tuple(totals),
    )
