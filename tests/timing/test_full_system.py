"""Integration tests for the instruction-level (L1-inclusive) system."""

import pytest

from repro.config import SimConfig
from repro.timing.full_system import FullHierarchySystem
from repro.timing.system import System
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace


def make_l1_trace(name="l1trace", records=20_000, hot_lines=64) -> Trace:
    """An L1-level stream: a hot set that fits L1 plus periodic cold touches."""
    addrs, writes, gaps = [], [], []
    for i in range(records):
        if i % 8 == 7:
            addrs.append(50_000 + i)  # cold line (misses everywhere)
        else:
            addrs.append(i % hot_lines)  # hot (L1-resident) line
        writes.append(i % 5 == 0)
        gaps.append(2)
    return Trace(name=name, addrs=addrs, writes=writes, gaps=gaps,
                 base_cpi=1.0, mem_mlp=1.0, footprint_lines=0)


@pytest.fixture
def trace() -> Trace:
    return make_l1_trace()


class TestFullHierarchy:
    def test_runs_all_techniques(self, small_sim_config, trace):
        for tech in ("baseline", "rpv", "esteem"):
            res = FullHierarchySystem(small_sim_config, [trace], tech).run()
            assert res.total_cycles > 0
            assert res.cores[0].wraps >= 1

    def test_l1_filters_most_traffic(self, small_sim_config, trace):
        sysm = FullHierarchySystem(small_sim_config, [trace], "baseline")
        sysm.run()
        assert sysm.l1_hit_rate > 0.5
        assert sysm.l1_hits + sysm.l1_misses >= len(trace)

    def test_l2_sees_only_l1_misses(self, small_sim_config, trace):
        sysm = FullHierarchySystem(small_sim_config, [trace], "baseline")
        res = sysm.run()
        l2_demand = res.l2_hits + res.l2_misses
        # L2 traffic = L1 misses + L1 writeback installs <= 2 * L1 misses.
        assert l2_demand <= 2 * sysm.l1_misses
        assert l2_demand >= sysm.l1_misses

    def test_faster_than_l2_only_interpretation(self, small_sim_config, trace):
        """The same stream interpreted as L1-level must execute in fewer
        cycles than interpreted as LLC-level (hot lines are L1 hits)."""
        full = FullHierarchySystem(small_sim_config, [trace], "baseline").run()
        llc = System(small_sim_config, [trace], "baseline").run()
        assert full.total_cycles < llc.total_cycles

    def test_esteem_reconfigures_shared_l2(self, small_sim_config, trace):
        res = FullHierarchySystem(small_sim_config, [trace], "esteem").run()
        assert res.timeline
        assert res.mean_active_fraction < 1.0

    def test_memory_traffic_conservation(self, small_sim_config, trace):
        res = FullHierarchySystem(small_sim_config, [trace], "baseline").run()
        assert res.mem_reads == res.l2_misses
        assert res.mem_writes == res.l2_writebacks


class TestDrowsyWakeup:
    def test_wakeup_latency_is_charged(self):
        # sphinx under esteem-drowsy hits gated-but-retaining ways; each
        # such L1 miss must pay the wake-up and clear the L2's flag.
        config = SimConfig.scaled(instructions_per_core=600_000)
        trace = generate_trace(get_profile("sphinx"), 600_000, seed=0)
        cycles = {}
        for wakeup in (0, 200):
            sysm = FullHierarchySystem(
                config.with_esteem(drowsy_wakeup_cycles=wakeup),
                [trace],
                "esteem-drowsy",
            )
            cycles[wakeup] = sysm.run().total_cycles
            assert sysm.l2.stats.drowsy_hits > 0
            assert sysm.l2.drowsy_flag is False
        assert cycles[200] > cycles[0]
