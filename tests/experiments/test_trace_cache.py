"""LRU byte cap on the process-wide trace cache."""

import numpy as np
import pytest

from repro.experiments import _trace_cache as tc
from repro.workloads.profiles import get_profile
from repro.workloads.trace import Trace


@pytest.fixture(autouse=True)
def _fresh_cache():
    tc.clear()
    yield
    tc.clear()


def synthetic_trace(name: str, n: int) -> Trace:
    """A trace whose column payload is exactly ``17 * n`` bytes."""
    return Trace(
        name=name,
        addrs=np.zeros(n, dtype=np.int64),
        writes=np.zeros(n, dtype=bool),
        gaps=np.ones(n, dtype=np.int64),
    )


class TestByteCap:
    def test_default_cap_is_one_gibibyte(self):
        assert tc.DEFAULT_MAX_BYTES == 1 << 30
        assert tc.max_bytes() == 1 << 30

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "4096")
        assert tc.max_bytes() == 4096

    def test_garbage_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "lots")
        assert tc.max_bytes() == tc.DEFAULT_MAX_BYTES

    def test_non_positive_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "-1")
        assert tc.max_bytes() == tc.DEFAULT_MAX_BYTES

    def test_accounting_tracks_column_payload(self):
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        assert tc.current_bytes() == 17 * 1000
        tc.put("b", 100, 0, synthetic_trace("b", 500))
        assert tc.current_bytes() == 17 * 1500

    def test_replacing_an_entry_does_not_double_count(self):
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("a", 100, 0, synthetic_trace("a", 2000))
        assert tc.current_bytes() == 17 * 2000


class TestEviction:
    def test_oldest_entry_evicted_first(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", str(17 * 2500))
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("b", 100, 0, synthetic_trace("b", 1000))
        tc.put("c", 100, 0, synthetic_trace("c", 1000))  # evicts "a"
        assert not tc.contains("a", 100, 0)
        assert tc.contains("b", 100, 0)
        assert tc.contains("c", 100, 0)
        assert tc.current_bytes() == 17 * 2000

    def test_recency_touch_changes_the_victim(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", str(17 * 2500))
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("b", 100, 0, synthetic_trace("b", 1000))
        assert tc.contains("a", 100, 0)  # touch: "b" is now the oldest
        tc.put("c", 100, 0, synthetic_trace("c", 1000))
        assert tc.contains("a", 100, 0)
        assert not tc.contains("b", 100, 0)

    def test_get_trace_hit_refreshes_recency(self, monkeypatch):
        profile = get_profile("gamess")
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", str(17 * 60_000))
        first = tc.get_trace(profile, 50_000, seed=0)  # miss: generates
        tc.get_trace(profile, 50_000, seed=0)  # hit
        assert tc.contains(profile.name, 50_000, 0)
        assert first is tc.get_trace(profile, 50_000, seed=0)

    def test_newest_entry_survives_even_when_oversized(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", "17")
        tc.put("big", 100, 0, synthetic_trace("big", 1000))
        assert tc.contains("big", 100, 0)
        assert tc.current_bytes() == 17 * 1000
        # ... but it becomes the victim as soon as a successor arrives.
        tc.put("next", 100, 0, synthetic_trace("next", 1000))
        assert not tc.contains("big", 100, 0)
        assert tc.contains("next", 100, 0)

    def test_eviction_counter_increments(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE_BYTES", str(17 * 1500))
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.put("b", 100, 0, synthetic_trace("b", 1000))  # evicts "a"
        assert not tc.contains("a", 100, 0)
        assert tc.contains("b", 100, 0)
        tc.put("c", 100, 0, synthetic_trace("c", 1000))  # evicts "b"
        assert not tc.contains("b", 100, 0)
        assert tc.contains("c", 100, 0)

    def test_bytes_gauge_reflects_current_payload(self):
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        assert tc.current_bytes() == 17 * 1000

    def test_clear_resets_accounting(self):
        tc.put("a", 100, 0, synthetic_trace("a", 1000))
        tc.clear()
        assert tc.current_bytes() == 0
        assert not tc.contains("a", 100, 0)
