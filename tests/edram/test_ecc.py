"""Unit tests for ECC-extended refresh."""

from dataclasses import replace

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, RefreshConfig
from repro.edram.ecc import EccExtendedRefresh, uncorrectable_probability
from repro.edram.refresh import PeriodicValidRefresh


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=16 * 64 * 4, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)


@pytest.fixture
def cfg() -> RefreshConfig:
    return RefreshConfig(
        retention_cycles=1_000, num_banks=4, lines_per_refresh_burst=16, rpv_phases=4
    )


class TestFailureModel:
    def test_no_extension_no_failures(self):
        assert uncorrectable_probability(1) == 0.0

    def test_monotone_in_extension(self):
        ps = [uncorrectable_probability(k) for k in (2, 4, 8, 16, 32)]
        assert ps == sorted(ps)
        assert all(0.0 <= p <= 1.0 for p in ps)

    def test_stronger_ecc_lowers_failure(self):
        weak = uncorrectable_probability(8, correctable_bits=0)
        secded = uncorrectable_probability(8, correctable_bits=1)
        strong = uncorrectable_probability(8, correctable_bits=4)
        assert strong < secded < weak

    def test_validation(self):
        with pytest.raises(ValueError):
            uncorrectable_probability(0)
        with pytest.raises(ValueError):
            uncorrectable_probability(4, correctable_bits=-1)


class TestEngine:
    def test_refresh_rate_scaled_down(self, cache, cfg):
        cache.state.valid[:] = True
        base = PeriodicValidRefresh(cache.state, cfg)
        ecc = EccExtendedRefresh(
            cache.state, replace(cfg, ecc_extension_factor=4), cache
        )
        base.advance_to(20_000)
        ecc.advance_to(20_000)
        # SECDED at k=4 -> ~no failures -> 1/4 the refreshes.
        assert ecc.total_refreshes * 4 == pytest.approx(
            base.total_refreshes, rel=0.05
        )

    def test_corruption_invalidates_lines(self, cache, cfg):
        for s in range(16):
            for t in range(1, 5):
                cache.access(cache.line_addr(s, t), False, window=0)
        ecc = EccExtendedRefresh(
            cache.state, replace(cfg, ecc_extension_factor=16), cache, seed=1
        )
        # Force a high failure probability for the test.
        ecc.p_uncorrectable = 0.5
        before = cache.state.valid_count()
        ecc.advance_to(16_000)  # one extended boundary
        lost = ecc.corruption_invalidations + ecc.data_loss_events
        assert lost > 0
        assert cache.state.valid_count() == before - lost
        cache.check_invariants()

    def test_dirty_corruption_counts_as_data_loss(self, cache, cfg):
        for s in range(16):
            cache.access(cache.line_addr(s, 1), True, window=0)  # dirty
        ecc = EccExtendedRefresh(
            cache.state, replace(cfg, ecc_extension_factor=16), cache, seed=1
        )
        ecc.p_uncorrectable = 1.0
        ecc.advance_to(16_000)
        assert ecc.data_loss_events == 16
        assert ecc.corruption_invalidations == 0

    def test_deterministic_given_seed(self, cache, cfg):
        def run(seed):
            c = SetAssociativeCache(cache.geometry)
            for s in range(16):
                for t in range(1, 5):
                    c.access(c.line_addr(s, t), False, window=0)
            e = EccExtendedRefresh(
                c.state, replace(cfg, ecc_extension_factor=16), c, seed=seed
            )
            e.p_uncorrectable = 0.3
            e.advance_to(32_000)
            return e.corruption_invalidations

        assert run(7) == run(7)

    def test_validation(self, cache, cfg):
        with pytest.raises(ValueError, match="ECC extension"):
            replace(cfg, ecc_extension_factor=0)
        other = SetAssociativeCache(cache.geometry)
        with pytest.raises(ValueError):
            EccExtendedRefresh(other.state, cfg, cache)
