"""Named regression tests for bugs found during calibration.

Each test documents a real defect that silently skewed results; keeping
them as first-class tests pins the fixes.
"""

import numpy as np

from repro.cache.block import LineState
from repro.config import RefreshConfig, SimConfig
from repro.edram.rpv import RefrintPolyphaseValid
from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace


class TestRpvOrphanedStamps:
    """Bug: RPV matched due lines with ``stamp == w - P`` exactly and
    skipped negative due-windows, so pre-warmed lines with staggered
    negative stamps were never refreshed again -- under-counting RPV
    refreshes by up to 3/4 on a warm cache."""

    def test_stale_groups_all_reach_steady_state(self):
        state = LineState(num_sets=16, associativity=4)
        state.valid[:] = True
        state.last_window[:] = -(np.arange(64) % 4)
        cfg = RefreshConfig(
            retention_cycles=1_000, num_banks=4,
            lines_per_refresh_burst=16, rpv_phases=4,
        )
        eng = RefrintPolyphaseValid(state, cfg)
        eng.advance_to(10_000)  # 10 retention periods
        assert eng.total_refreshes == 64 * 10

    def test_very_old_stamp_caught_up_not_orphaned(self):
        state = LineState(num_sets=16, associativity=4)
        state.valid[0] = True
        state.last_window[0] = -50
        cfg = RefreshConfig(retention_cycles=1_000)
        eng = RefrintPolyphaseValid(state, cfg)
        eng.advance_to(cfg.phase_cycles)
        assert eng.total_refreshes == 1


class TestGeneratorColdStacks:
    """Bug: per-virtual-set recency stacks started empty and the cold
    allocator touched only a few percent of the working set at scaled
    trace lengths, so every near reuse collapsed to stack depth 0 and the
    ATD histograms were purely MRU -- ESTEEM always chose A_min and the
    alpha knob had no effect."""

    def test_hit_positions_spread_beyond_mru(self):
        cfg = SimConfig.scaled(instructions_per_core=2_000_000)
        from repro.timing.system import System

        trace = generate_trace(get_profile("astar"), 2_000_000, seed=0)
        sysm = System(cfg, [trace], "baseline")
        sysm.run()
        hist = sysm.l2.stats.hits_by_position
        deep_hits = sum(hist[2:])
        assert deep_hits > 0.1 * sum(hist), (
            "astar (d_mean=8) must produce hits beyond position 1"
        )

    def test_alpha_actually_binds(self):
        from repro.experiments.runner import Runner

        low = Runner(
            SimConfig.scaled(instructions_per_core=2_000_000).with_esteem(
                alpha=0.80
            )
        )
        high = Runner(
            SimConfig.scaled(instructions_per_core=2_000_000).with_esteem(
                alpha=0.995
            )
        )
        a_low = low.compare("astar", "esteem").active_ratio_pct
        a_high = high.compare("astar", "esteem").active_ratio_pct
        assert a_high > a_low


class TestDampingShrinkOnly:
    """Bug: ``max_way_delta`` originally clamped growth too, which made a
    phased workload oscillate and flush live data every interval."""

    def test_growth_is_never_capped(self):
        from repro.cache.cache import SetAssociativeCache
        from repro.config import CacheGeometry, EsteemConfig
        from repro.core.esteem import EsteemController

        geo = CacheGeometry(size_bytes=64 * 64 * 4, associativity=4)
        cache = SetAssociativeCache(geo)
        cfg = EsteemConfig(
            alpha=0.95, a_min=1, num_modules=4, sampling_ratio=8,
            interval_cycles=1_000, max_way_delta=1,
        )
        ctl = EsteemController(cache, cfg)
        # Descend to 2 ways over two intervals (1/interval cap).
        ctl.on_interval_end(1_000)
        assert ctl.on_interval_end(2_000).n_active_way == (2, 2, 2, 2)
        # Now feed deep-position hits: demand jumps back to 4 ways, and the
        # cap must NOT slow the grow direction.
        for row in ctl.profiler.hist:
            row[:] = [10, 10, 10, 10]
        record = ctl.on_interval_end(3_000)
        assert record.n_active_way == (4, 4, 4, 4)
