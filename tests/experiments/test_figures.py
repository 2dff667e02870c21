"""Tests for Figure 2's series builder (E1 plumbing)."""

import pytest

from repro.config import SimConfig
from repro.experiments.figures import fig2_reconfiguration_timeline
from repro.experiments.runner import Runner


@pytest.fixture(scope="module")
def runner() -> Runner:
    return Runner(SimConfig.scaled(instructions_per_core=5_000_000))


class TestFig2:
    def test_timeline_has_points(self, runner):
        result, points = fig2_reconfiguration_timeline(runner, "h264ref")
        assert points
        assert result.workload == "h264ref"

    def test_points_carry_per_module_way_counts(self, runner):
        _, points = fig2_reconfiguration_timeline(runner, "h264ref")
        modules = runner.config.esteem.num_modules
        for p in points:
            assert len(p.ways_per_module) == modules
            assert 0 < p.active_ratio_pct <= 100

    def test_paper_observation_modules_diverge(self, runner):
        """Fig. 2's headline: within an interval, different modules may hold
        different way counts, and the active ratio varies over time."""
        _, points = fig2_reconfiguration_timeline(runner, "h264ref")
        assert any(len(set(p.ways_per_module)) > 1 for p in points)

    def test_intervals_monotonic(self, runner):
        _, points = fig2_reconfiguration_timeline(runner, "h264ref")
        cycles = [p.cycle for p in points]
        assert cycles == sorted(cycles)
