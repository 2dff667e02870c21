"""Unit/integration tests for the drowsy gating mode."""

import pytest

from repro.cache.cache import SetAssociativeCache
from repro.config import CacheGeometry, EsteemConfig, MemoryConfig
from repro.core.esteem import EsteemController
from repro.core.modules import ModuleMap
from repro.core.reconfig import ReconfigurationController
from repro.edram.refresh import EsteemDrowsyRefresh
from repro.config import RefreshConfig
from repro.mem.dram import MainMemory
from repro.timing.system import System
from repro.workloads.synthetic import PhaseSpec, generate_trace
from repro.workloads.profiles import BenchmarkProfile


@pytest.fixture
def cache() -> SetAssociativeCache:
    geo = CacheGeometry(size_bytes=64 * 64 * 4, associativity=4, latency_cycles=1)
    return SetAssociativeCache(geo)


@pytest.fixture
def mm() -> ModuleMap:
    return ModuleMap(num_sets=64, num_modules=4, sampling_ratio=8)


def fill_module(cache, mm, module, dirty=False):
    first, last = mm.set_range(module)
    for s in range(first, last):
        for t in range(1, 5):
            cache.access(cache.line_addr(s, t), dirty)


class TestDrowsyReconfig:
    def test_shrink_keeps_data(self, cache, mm):
        ctl = ReconfigurationController(cache, mm, drowsy=True)
        fill_module(cache, mm, 0, dirty=True)
        stats = ctl.apply([2, 4, 4, 4])
        assert stats.writebacks == []
        assert stats.clean_discards == 0
        assert stats.transitions > 0
        # All four lines still resident in a follower set.
        s = mm.followers_in(0)[0]
        assert len(cache.sets[s].resident_tags()) == 4

    def test_drowsy_lines_marked_inactive(self, cache, mm):
        ctl = ReconfigurationController(cache, mm, drowsy=True)
        fill_module(cache, mm, 0)
        ctl.apply([2, 4, 4, 4])
        state = cache.state
        s = mm.followers_in(0)[0]
        g = state.gidx(s, 3)
        assert state.valid[g] and not state.active[g]

    def test_drowsy_hit_sets_flag_and_counter(self, cache, mm):
        ctl = ReconfigurationController(cache, mm, drowsy=True)
        s = mm.followers_in(0)[0]
        addrs = [cache.line_addr(s, t) for t in range(1, 5)]
        for a in addrs:
            cache.access(a, False)
        ctl.apply([2, 4, 4, 4])
        # The line in way 3 is drowsy; hitting it flags the wake-up.
        way3_addr = cache.sets[s].tags[3]
        cache.drowsy_flag = False
        hit, _, _ = cache.access(way3_addr, False)
        assert hit
        assert cache.drowsy_flag
        assert cache.stats.drowsy_hits == 1

    def test_active_way_hit_does_not_flag(self, cache, mm):
        ctl = ReconfigurationController(cache, mm, drowsy=True)
        s = mm.followers_in(0)[0]
        addr = cache.line_addr(s, 1)
        cache.access(addr, False)
        ctl.apply([2, 4, 4, 4])
        way = cache.sets[s].tag_map[addr]
        if way >= 2:  # ensure we hit an *active* way for this check
            pytest.skip("line landed in a gated way")
        cache.drowsy_flag = False
        cache.access(addr, False)
        assert not cache.drowsy_flag

    def test_leader_sets_never_flag(self, cache, mm):
        ctl = ReconfigurationController(cache, mm, drowsy=True)
        leader = mm.leaders_in(0)[0]
        addr = cache.line_addr(leader, 9)
        cache.access(addr, False)
        ctl.apply([1, 1, 1, 1])
        cache.drowsy_flag = False
        cache.access(addr, False)
        assert not cache.drowsy_flag


class TestGatedWayInvariant:
    """A gated way may hold a line only when gating retains data."""

    def test_drowsy_gated_way_keeps_its_line(self, cache, mm):
        ctl = ReconfigurationController(cache, mm, drowsy=True)
        fill_module(cache, mm, 0)
        ctl.apply([2, 4, 4, 4])
        s = mm.followers_in(0)[0]
        assert cache.sets[s].tags[3] is not None
        cache.check_invariants()

    def test_off_mode_line_in_gated_way_fails(self, cache, mm):
        ctl = ReconfigurationController(cache, mm, drowsy=False)
        fill_module(cache, mm, 0)
        ctl.apply([2, 4, 4, 4])
        cache.check_invariants()
        # Plant a line, consistently mirrored, in a way the shrink gated.
        s = mm.followers_in(0)[0]
        cset = cache.sets[s]
        assert cset.tags[3] is None
        tag = cache.line_addr(s, 9)
        cset.tags[3] = tag
        cset.tag_map[tag] = 3
        cache.state.valid[cache.state.gidx(s, 3)] = True
        with pytest.raises(AssertionError, match="disabled way"):
            cache.check_invariants()


class TestDrowsyRefresh:
    def test_drowsy_lines_refresh_at_multiple(self):
        from repro.cache.block import LineState

        state = LineState(num_sets=16, associativity=4)
        state.valid[:] = True
        state.active[:32] = False  # 32 drowsy + 32 active, all valid
        cfg = RefreshConfig(
            retention_cycles=1_000, num_banks=4,
            lines_per_refresh_burst=16, rpv_phases=4,
        )
        eng = EsteemDrowsyRefresh(state, cfg, retention_multiplier=4)
        eng.advance_to(1_000)  # boundary 1: active only
        assert eng.total_refreshes == 32
        eng.advance_to(3_000)  # boundaries 2, 3: active only
        assert eng.total_refreshes == 32 * 3
        eng.advance_to(4_000)  # boundary 4: active + drowsy
        assert eng.total_refreshes == 32 * 4 + 32

    def test_multiplier_validated(self):
        from repro.cache.block import LineState

        state = LineState(num_sets=4, associativity=4)
        cfg = RefreshConfig(retention_cycles=1_000)
        with pytest.raises(ValueError):
            EsteemDrowsyRefresh(state, cfg, retention_multiplier=0)


class TestDrowsyEndToEnd:
    @pytest.fixture
    def trace(self, small_sim_config):
        profile = BenchmarkProfile(
            name="drowsyload", acronym="Dz", suite="spec",
            phases=(
                PhaseSpec(ws_lines=200, d_mean=1.5, segment_records=3_000),
                PhaseSpec(ws_lines=900, d_mean=4.0, segment_records=3_000),
            ),
            write_fraction=0.3, gap_mean=15.0, base_cpi=1.0,
            footprint_lines=900,
        )
        return generate_trace(profile, small_sim_config.instructions_per_core, 0)

    def test_drowsy_reduces_mpki_penalty(self, small_sim_config, trace):
        base = System(small_sim_config, [trace], "baseline").run()
        off = System(small_sim_config, [trace], "esteem").run()
        drowsy = System(small_sim_config, [trace], "esteem-drowsy").run()
        assert drowsy.mpki - base.mpki <= off.mpki - base.mpki
        assert drowsy.mem_writes <= off.mem_writes  # no flush writebacks

    def test_drowsy_effective_fa_above_way_fraction(self, small_sim_config, trace):
        sysm = System(small_sim_config, [trace], "esteem-drowsy")
        sysm.run()
        way_fraction = sysm.esteem.reconfig.active_fraction()
        assert sysm.esteem.active_fraction() >= way_fraction

    def test_drowsy_refreshes_more_than_off(self, small_sim_config, trace):
        off = System(small_sim_config, [trace], "esteem").run()
        drowsy = System(small_sim_config, [trace], "esteem-drowsy").run()
        assert drowsy.refreshes >= off.refreshes

    def test_config_override_applied(self, small_sim_config, trace):
        sysm = System(small_sim_config, [trace], "esteem-drowsy")
        assert sysm.config.esteem.gating_mode == "drowsy"
        assert sysm.esteem.reconfig.drowsy
