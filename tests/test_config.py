"""Unit tests for the configuration layer."""

import dataclasses

import pytest

from repro.config import (
    CacheGeometry,
    EsteemConfig,
    MemoryConfig,
    RefreshConfig,
    SimConfig,
    config_fields,
)


class TestCacheGeometry:
    def test_paper_l2_geometry(self):
        geo = CacheGeometry(size_bytes=4 * 1024 * 1024, associativity=16)
        assert geo.num_lines == 65536
        assert geo.num_sets == 4096
        assert geo.set_index_bits == 12

    def test_paper_l1_geometry(self):
        geo = CacheGeometry(size_bytes=32 * 1024, associativity=4, latency_cycles=2)
        assert geo.num_sets == 128

    def test_addressing_helpers(self):
        geo = CacheGeometry(size_bytes=64 * 1024, associativity=8)
        addr = (0xAB << geo.set_index_bits) | 5
        assert geo.set_index(addr) == 5
        assert addr >> geo.set_index_bits == 0xAB

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=3 * 64 * 10, associativity=10)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(size_bytes=0, associativity=4)


class TestRefreshConfig:
    def test_from_microseconds(self):
        cfg = RefreshConfig.from_microseconds(50.0)
        assert cfg.retention_cycles == 100_000
        cfg = RefreshConfig.from_microseconds(40.0)
        assert cfg.retention_cycles == 80_000

    @pytest.mark.parametrize("retention_us", [0.0, -5.0, float("nan")])
    def test_non_positive_retention_rejected(self, retention_us):
        # Not rounded up to one cycle per RPV phase.
        with pytest.raises(ValueError, match="retention must be positive"):
            RefreshConfig.from_microseconds(retention_us)
        with pytest.raises(ValueError, match="retention must be positive"):
            SimConfig.scaled(retention_us=retention_us)

    def test_phase_cycles(self):
        cfg = RefreshConfig(retention_cycles=100_000, rpv_phases=4)
        assert cfg.phase_cycles == 25_000

    def test_phases_must_divide_retention(self):
        with pytest.raises(ValueError):
            RefreshConfig(retention_cycles=100_001, rpv_phases=4)

    @pytest.mark.parametrize("phases", [3, 6, 12])
    def test_phases_must_be_power_of_two(self, phases):
        with pytest.raises(ValueError, match="power of two"):
            RefreshConfig(retention_cycles=120_000, rpv_phases=phases)


class TestMemoryConfig:
    def test_service_cycles(self):
        cfg = MemoryConfig(bandwidth_bytes_per_sec=10e9)
        assert cfg.service_cycles == pytest.approx(12.8)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            MemoryConfig(latency_cycles=-1)


class TestEsteemConfig:
    def test_defaults_match_paper(self):
        cfg = EsteemConfig()
        assert cfg.alpha == 0.97
        assert cfg.a_min == 3
        assert cfg.sampling_ratio == 64
        assert cfg.interval_cycles == 10_000_000

    def test_validation_against_cache(self):
        geo = CacheGeometry(size_bytes=4 * 1024 * 1024, associativity=16)
        EsteemConfig(num_modules=8, sampling_ratio=64).validate_for_cache(geo)
        with pytest.raises(ValueError):
            EsteemConfig(num_modules=128, sampling_ratio=64).validate_for_cache(geo)
        with pytest.raises(ValueError):
            EsteemConfig(num_modules=3).validate_for_cache(geo)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            EsteemConfig(alpha=0.0)
        with pytest.raises(ValueError):
            EsteemConfig(alpha=1.01)


class TestSimConfig:
    def test_paper_scale_single(self):
        cfg = SimConfig.paper_scale(1)
        assert cfg.l2.size_bytes == 4 * 1024 * 1024
        assert cfg.esteem.num_modules == 8
        assert cfg.memory.bandwidth_bytes_per_sec == 10e9
        assert cfg.instructions_per_core == 400_000_000
        assert cfg.esteem.interval_cycles == 10_000_000

    def test_paper_scale_dual(self):
        cfg = SimConfig.paper_scale(2)
        assert cfg.l2.size_bytes == 8 * 1024 * 1024
        assert cfg.esteem.num_modules == 16
        assert cfg.memory.bandwidth_bytes_per_sec == 15e9

    def test_paper_scale_rejects_other_core_counts(self):
        with pytest.raises(ValueError):
            SimConfig.paper_scale(4)

    @pytest.mark.parametrize("cores", [0, 3, 4])
    def test_rejects_unsupported_core_counts(self, cores):
        with pytest.raises(ValueError, match="1 and 2 cores"):
            SimConfig(num_cores=cores)

    def test_scaled_keeps_geometry(self):
        cfg = SimConfig.scaled()
        assert cfg.l2.size_bytes == 4 * 1024 * 1024
        assert cfg.refresh.retention_cycles == 100_000
        assert cfg.instructions_per_core < 100_000_000

    def test_scaled_retention_override(self):
        cfg = SimConfig.scaled(retention_us=40.0)
        assert cfg.refresh.retention_cycles == 80_000

    def test_with_esteem(self):
        cfg = SimConfig.scaled().with_esteem(alpha=0.5)
        assert cfg.esteem.alpha == 0.5
        assert cfg.l2.size_bytes == 4 * 1024 * 1024

    def test_with_l2(self):
        cfg = SimConfig.scaled().with_l2(size_bytes=8 * 1024 * 1024)
        assert cfg.l2.num_sets == 8192

    def test_with_retention_us(self):
        cfg = SimConfig.scaled().with_retention_us(40.0)
        assert cfg.refresh.retention_cycles == 80_000
        # other refresh knobs preserved
        assert cfg.refresh.num_banks == 4

    def test_with_retention_us_keeps_every_other_refresh_field(self):
        refresh = RefreshConfig(
            num_banks=2, lines_per_refresh_burst=64, rpv_phases=8,
            ecc_extension_factor=2,
        )
        cfg = dataclasses.replace(SimConfig.scaled(), refresh=refresh)
        assert cfg.with_retention_us(40.0).refresh == dataclasses.replace(
            refresh, retention_cycles=80_000
        )

    def test_invalid_combination_rejected_at_construction(self):
        with pytest.raises(ValueError):
            SimConfig(
                l2=CacheGeometry(size_bytes=64 * 1024, associativity=8),
                esteem=EsteemConfig(num_modules=64, sampling_ratio=64),
            )

    def test_describe_keys(self):
        desc = SimConfig.scaled().describe()
        for key in ("cores", "l2_mb", "retention_us", "alpha", "modules"):
            assert key in desc
        assert desc["retention_us"] == pytest.approx(50.0)

    def test_frozen(self):
        cfg = SimConfig.scaled()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_cores = 4


class TestConfigFields:
    def test_flattening(self):
        flat = config_fields(SimConfig.scaled())
        assert flat["esteem.alpha"] == 0.97
        assert flat["l2.associativity"] == 16
        assert flat["refresh.retention_cycles"] == 100_000
        # Every settable value keys the result cache and the manifests:
        # a new field is a decision, not a side effect.
        assert sorted(config_fields(SimConfig())) == [
            "esteem.a_min",
            "esteem.alpha",
            "esteem.interval_cycles",
            "esteem.max_way_delta",
            "esteem.nonlru_guard",
            "esteem.num_modules",
            "esteem.sampling_ratio",
            "instructions_per_core",
            "l2.associativity",
            "l2.latency_cycles",
            "l2.size_bytes",
            "memory.bandwidth_bytes_per_sec",
            "memory.latency_cycles",
            "num_cores",
            "refresh.ecc_extension_factor",
            "refresh.lines_per_refresh_burst",
            "refresh.num_banks",
            "refresh.retention_cycles",
            "refresh.rpv_phases",
        ]
