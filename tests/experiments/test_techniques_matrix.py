"""Cross-technique integration matrix.

Every technique the system knows, run on the same traces, with the
relationships that must hold between them asserted in one place.
"""

import json

import pytest

from repro.config import SimConfig
from repro.experiments.runner import (
    RunComparison,
    comparison_from_dict,
    comparison_to_dict,
)
from repro.timing.system import System, TECHNIQUES
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace

INSTRUCTIONS = 1_000_000


@pytest.fixture(scope="module")
def config() -> SimConfig:
    return SimConfig.scaled(instructions_per_core=INSTRUCTIONS)


@pytest.fixture(scope="module")
def results(config):
    trace = generate_trace(get_profile("sphinx"), INSTRUCTIONS, seed=0)
    return {
        tech: System(config, [trace], tech).run() for tech in TECHNIQUES
    }


class TestMatrix:
    def test_all_techniques_complete(self, results):
        assert set(results) == set(TECHNIQUES)
        for res in results.values():
            assert res.total_cycles > 0
            assert res.energy.total_j > 0

    def test_refresh_ordering(self, results):
        """no-refresh <= esteem <= periodic-valid <= baseline, and every
        policy refreshes at most as much as the baseline per unit time."""
        assert results["no-refresh"].refreshes == 0
        assert results["esteem"].refreshes <= results["periodic-valid"].refreshes
        assert (
            results["periodic-valid"].refreshes
            <= results["baseline"].refreshes * 1.01
        )
        for tech in ("rpv", "rpd", "decay", "esteem-drowsy", "selective-sets"):
            assert results[tech].rpki <= results["baseline"].rpki * 1.02, tech

    def test_hitmiss_preserving_techniques(self, results):
        """Techniques that neither invalidate nor gate must reproduce the
        baseline's hit/miss behaviour exactly."""
        base = results["baseline"]
        for tech in ("rpv", "periodic-valid", "no-refresh"):
            assert results[tech].l2_hits == base.l2_hits, tech
            assert results[tech].l2_misses == base.l2_misses, tech

    def test_invalidating_techniques_add_misses(self, results):
        base = results["baseline"]
        for tech in ("rpd", "decay"):
            assert results[tech].l2_misses >= base.l2_misses, tech

    def test_gating_techniques_reduce_active_ratio(self, results):
        for tech in ("esteem", "esteem-drowsy", "selective-sets"):
            assert results[tech].mean_active_fraction < 1.0, tech
        for tech in ("baseline", "rpv", "rpd", "decay", "periodic-valid"):
            assert results[tech].mean_active_fraction == 1.0, tech

    def test_reconfiguring_techniques_have_timelines(self, results):
        for tech in ("esteem", "esteem-drowsy", "selective-sets"):
            assert results[tech].timeline, tech
        for tech in ("baseline", "rpv", "rpd", "decay"):
            assert results[tech].timeline == [], tech

    def test_every_technique_round_trips_the_result_codec(self, results):
        # What the result cache and the checkpoint log store must load
        # back bit for bit, timeline records included.
        for tech, res in results.items():
            comp = RunComparison("sphinx", tech, res, results["baseline"])
            raw = json.loads(json.dumps(comparison_to_dict(comp)))
            assert comparison_from_dict(raw) == comp, tech

    def test_drowsy_never_flushes(self, results):
        assert results["esteem-drowsy"].flush_writebacks == 0
        assert results["esteem"].flush_writebacks >= 0

    def test_instruction_counts_agree(self, results):
        counts = {r.total_instructions for r in results.values()}
        assert len(counts) == 1

    def test_energy_ordering_no_refresh_is_floor(self, results):
        """Removing refresh entirely (impossible for real eDRAM) lower-
        bounds every real policy's L2 refresh energy."""
        for tech, res in results.items():
            if tech == "no-refresh":
                continue
            assert res.energy.l2_refresh_j >= 0


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_esteem_shape_stable_across_seeds(self, config, seed):
        """The headline result must not hinge on one RNG stream."""
        from repro.experiments.runner import Runner

        runner = Runner(config, seed=seed)
        small = runner.compare("gamess", "esteem")
        assert small.energy_saving_pct > 20.0
        rpv = runner.compare("gamess", "rpv")
        assert small.energy_saving_pct > rpv.energy_saving_pct - 5.0

    def test_different_seeds_different_traces_same_band(self, config):
        from repro.experiments.runner import Runner

        savings = []
        for seed in (1, 2, 3):
            runner = Runner(config, seed=seed)
            savings.append(runner.compare("sphinx", "esteem").energy_saving_pct)
        assert max(savings) - min(savings) < 15.0
