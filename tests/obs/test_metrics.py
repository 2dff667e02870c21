"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)


class TestGauge:
    def test_set_and_add(self):
        g = Gauge("g")
        g.set(4.0)
        g.add(-1.5)
        assert g.value == 2.5


class TestHistogram:
    def test_bucket_assignment_is_upper_bound_inclusive(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 100.0, 1000.0):
            h.observe(v)
        # counts: <=1, <=10, <=100, +Inf
        assert h.counts == [2, 1, 1, 1]
        assert h.total == 5
        assert h.sum == pytest.approx(1106.5)
        assert h.mean == pytest.approx(1106.5 / 5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram("h", buckets=(10.0, 1.0))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError, match="bucket"):
            Histogram("h", buckets=())

    def test_as_dict_has_inf_bucket(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(5.0)
        d = h.as_dict()
        assert d["buckets"]["+Inf"] == 1
        assert d["count"] == 1


class TestRegistry:
    def test_instruments_idempotent_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_snapshot_and_text(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc(3)
        reg.gauge("fa").set(0.5)
        reg.histogram("lat", buckets=(1.0,)).observe(2.0)
        snap = reg.snapshot()
        assert snap["runs"]["value"] == 3
        assert snap["fa"]["value"] == 0.5
        assert snap["lat"]["count"] == 1
        text = reg.format_text()
        assert "runs 3" in text
        assert "lat_count 1" in text

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.clear()
        assert reg.names() == []
