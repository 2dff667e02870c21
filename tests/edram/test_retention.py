"""Unit tests for the temperature-dependent retention model."""

import pytest

from repro.config import RefreshConfig
from repro.edram.retention import (
    retention_us,
    temperature_for_retention_us,
)


class TestAnchors:
    def test_paper_operating_point_60c(self):
        assert retention_us(60.0) == pytest.approx(50.0)

    def test_barth_measurement_105c(self):
        assert retention_us(105.0) == pytest.approx(40.0)

    def test_retention_cycles_at_2ghz(self):
        def cycles(temperature_c):
            return RefreshConfig.from_microseconds(
                retention_us(temperature_c)
            ).retention_cycles

        assert cycles(60.0) == 100_000
        assert cycles(105.0) == 80_000


class TestShape:
    def test_monotonically_decreasing_with_temperature(self):
        temps = [20, 40, 60, 80, 100, 120]
        values = [retention_us(t) for t in temps]
        assert values == sorted(values, reverse=True)

    def test_cooler_means_longer_retention(self):
        assert retention_us(25.0) > retention_us(60.0)

    def test_exponential_ratio_is_temperature_shift_invariant(self):
        r1 = retention_us(40.0) / retention_us(50.0)
        r2 = retention_us(80.0) / retention_us(90.0)
        assert r1 == pytest.approx(r2)


class TestInverse:
    def test_roundtrip(self):
        for target in (30.0, 40.0, 50.0, 75.0):
            t = temperature_for_retention_us(target)
            assert retention_us(t) == pytest.approx(target)

    def test_known_points(self):
        assert temperature_for_retention_us(50.0) == pytest.approx(60.0)
        assert temperature_for_retention_us(40.0) == pytest.approx(105.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            temperature_for_retention_us(0.0)
