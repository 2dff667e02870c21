"""Shared fixtures: small geometries so unit tests run in milliseconds."""

from __future__ import annotations

import os

import pytest

import repro
from repro.config import (
    CacheGeometry,
    EsteemConfig,
    MemoryConfig,
    RefreshConfig,
    SimConfig,
)


@pytest.fixture(autouse=True)
def _isolated_result_cache(tmp_path_factory, monkeypatch):
    """Point the sweep result cache at a per-test temp dir.

    Keeps tests hermetic: nothing reads or writes the developer's
    ``~/.cache/repro/results``, and no test can be satisfied by an entry
    another test (or an earlier run) stored.
    """
    monkeypatch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("result-cache"))
    )


@pytest.fixture(scope="session")
def repro_env() -> dict[str, str]:
    """Environment for a child ``python -m repro`` that imports this
    checkout's ``src``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """64 sets x 4 ways x 64 B lines = 16 KB."""
    return CacheGeometry(size_bytes=16 * 1024, associativity=4, latency_cycles=12)


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """128 sets x 8 ways = 64 KB."""
    return CacheGeometry(size_bytes=64 * 1024, associativity=8, latency_cycles=12)


@pytest.fixture
def small_refresh() -> RefreshConfig:
    """A short retention period so boundaries are hit quickly."""
    return RefreshConfig(
        retention_cycles=1_000, num_banks=4, lines_per_refresh_burst=16, rpv_phases=4
    )


@pytest.fixture
def small_sim_config(small_geometry: CacheGeometry) -> SimConfig:
    """A complete but very small simulated system for integration tests."""
    return SimConfig(
        num_cores=1,
        l2=small_geometry,
        refresh=RefreshConfig(
            retention_cycles=2_000,
            num_banks=4,
            lines_per_refresh_burst=16,
            rpv_phases=4,
        ),
        memory=MemoryConfig(latency_cycles=100, bandwidth_bytes_per_sec=10e9),
        esteem=EsteemConfig(
            alpha=0.95,
            a_min=2,
            num_modules=4,
            sampling_ratio=8,
            interval_cycles=10_000,
        ),
        instructions_per_core=50_000,
    )
