"""ECC-extended refresh periods (the paper's Section 2, refs [39, 45]).

"Some researchers propose use of error-detection/correction based
approaches which allow increasing the refresh period by tolerating some
failures" -- Reviriego et al.'s BCH-partitioned eDRAM caches [39] and
Wilkerson et al.'s multi-bit ECC [45].  This engine models the idea so it
can be compared against reconfiguration (ESTEEM) and scheduling (RPV)
approaches:

* Valid lines are refreshed only every ``ecc_extension_factor`` retention
  periods (refresh energy scales down by that factor).
* Stretching a cell's time-between-refreshes makes weak cells drop bits.
  Per line and per (extended) refresh interval, the probability that more
  errors accumulate than the line's ECC can correct follows a binomial
  model over the line's bits with a per-bit failure probability that grows
  with the extension (see :func:`uncorrectable_probability`).
* An uncorrectable *clean* line is invalidated (re-fetched on next use);
  an uncorrectable *dirty* line is a **data-loss event** -- the cost that
  bounds how far refresh can be stretched without write-through or
  scrubbing support.
* ECC bits cost area and energy: SECDED on a 512-bit line adds ~2%
  (:data:`ECC_OVERHEAD`), charged on L2 leakage and dynamic energy by the
  simulated system.

The per-bit failure model is deliberately simple (quadratic growth in the
extension factor, calibrated so the energy/reliability crossover falls in
the practically interesting range k in [2, 16]); DESIGN.md documents it as
a synthetic substitution for real retention-time distributions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cache.cache import SetAssociativeCache
from repro.config import LINE_SIZE_BYTES, RefreshConfig, TAG_BITS
from repro.edram.refresh import RefreshEngine

__all__ = [
    "ECC_CORRECTABLE_BITS",
    "ECC_OVERHEAD",
    "EccExtendedRefresh",
    "uncorrectable_probability",
]

#: Bit errors per line the code corrects (SECDED).
ECC_CORRECTABLE_BITS = 1

#: Share of L2 energy the ECC bits add (SECDED on a 512-bit line).
ECC_OVERHEAD = 0.02

#: Bits protected per line (data + tag).
_LINE_BITS = LINE_SIZE_BYTES * 8 + TAG_BITS

#: Per-bit failure probability scale (calibration constant; see module doc).
_Q0 = 2.0e-6


def uncorrectable_probability(
    extension_factor: int, correctable_bits: int = ECC_CORRECTABLE_BITS
) -> float:
    """Probability a line accumulates more errors than ECC can correct.

    Per extended refresh interval: per-bit failure probability
    ``q = Q0 * (k - 1)^2`` (no stretching -> no extra failures), and the
    line fails when more than ``correctable_bits`` bits flip (binomial
    upper tail, evaluated exactly for the first few terms).
    """
    if extension_factor < 1:
        raise ValueError("extension factor must be at least 1")
    if correctable_bits < 0:
        raise ValueError("correctable bit count must be non-negative")
    q = _Q0 * (extension_factor - 1) ** 2
    if q <= 0.0:
        return 0.0
    q = min(q, 1.0)
    # P(X > t) = 1 - sum_{i<=t} C(n,i) q^i (1-q)^(n-i)
    n = _LINE_BITS
    p_ok = 0.0
    for i in range(correctable_bits + 1):
        p_ok += math.comb(n, i) * (q**i) * ((1.0 - q) ** (n - i))
    return max(0.0, 1.0 - p_ok)


class EccExtendedRefresh(RefreshEngine):
    """Refresh valid lines every ``config.ecc_extension_factor`` retention
    periods."""

    name = "ecc-extended"
    #: Uncorrectable retention errors invalidate lines at boundaries,
    #: changing later hit/miss outcomes -- the batch kernel must never
    #: span one.
    mutates_cache_state = True

    def __init__(
        self,
        state,
        config: RefreshConfig,
        cache: SetAssociativeCache,
        seed: int = 0,
    ) -> None:
        if cache.state is not state:
            raise ValueError("cache and line state must belong together")
        super().__init__(state, config)
        self.cache = cache
        self.p_uncorrectable = uncorrectable_probability(
            config.ecc_extension_factor, ECC_CORRECTABLE_BITS
        )
        self._rng = np.random.default_rng(seed)
        #: Clean lines dropped due to uncorrectable errors.
        self.corruption_invalidations = 0
        #: Dirty lines lost to uncorrectable errors (unrecoverable!).
        self.data_loss_events = 0

    @property
    def window_cycles(self) -> int:
        return self.config.retention_cycles * self.config.ecc_extension_factor

    def _lines_to_refresh(self, boundary_cycle: int) -> int:
        state = self.state
        valid_idx = np.nonzero(state.valid)[0]
        count = int(valid_idx.size)
        if count == 0:
            return 0
        if self.p_uncorrectable > 0.0:
            n_fail = int(self._rng.binomial(count, self.p_uncorrectable))
            if n_fail:
                victims = self._rng.choice(valid_idx, size=n_fail, replace=False)
                invalidate = self.cache.invalidate_line
                for g in victims:
                    _tag, was_dirty = invalidate(int(g))
                    if was_dirty:
                        self.data_loss_events += 1
                    else:
                        self.corruption_invalidations += 1
                count -= n_fail
        return count
