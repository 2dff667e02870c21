"""Unit tests for the stack-distance trace generator."""

from collections import deque

import numpy as np
import pytest

from repro.workloads.profiles import BenchmarkProfile, get_profile
from repro.workloads.synthetic import (
    _MAX_STACK_DEPTH,
    VIRTUAL_SETS,
    PhaseSpec,
    _SeededStacks,
    SyntheticTraceGenerator,
    generate_trace,
)


def profile_with(phases, gap=50.0, wf=0.3, name="testload") -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        acronym="Tl",
        suite="spec",
        phases=phases,
        write_fraction=wf,
        gap_mean=gap,
        base_cpi=1.0,
        footprint_lines=1000,
    )


class TestPhaseSpecValidation:
    def test_probabilities_must_sum_below_one(self):
        with pytest.raises(ValueError):
            PhaseSpec(ws_lines=100, p_new=0.6, p_near=0.6)

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            PhaseSpec(ws_lines=100, pattern="zigzag")

    def test_d_mean_floor(self):
        with pytest.raises(ValueError):
            PhaseSpec(ws_lines=100, d_mean=0.5)

    def test_empty_ws_rejected(self):
        with pytest.raises(ValueError):
            PhaseSpec(ws_lines=0)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        p = get_profile("h264ref")
        t1 = generate_trace(p, 200_000, seed=3)
        t2 = generate_trace(p, 200_000, seed=3)
        assert np.array_equal(t1.addrs, t2.addrs)
        assert np.array_equal(t1.writes, t2.writes)
        assert np.array_equal(t1.gaps, t2.gaps)

    def test_different_seed_different_trace(self):
        p = get_profile("h264ref")
        t1 = generate_trace(p, 200_000, seed=1)
        t2 = generate_trace(p, 200_000, seed=2)
        assert not np.array_equal(t1.addrs, t2.addrs)

    def test_different_profiles_differ(self):
        t1 = generate_trace(get_profile("gamess"), 500_000, seed=0)
        t2 = generate_trace(get_profile("gobmk"), 500_000, seed=0)
        assert not np.array_equal(t1.addrs[:100], t2.addrs[:100])


class TestBudgets:
    def test_instruction_budget_respected(self):
        p = profile_with((PhaseSpec(ws_lines=5_000),), gap=100.0)
        t = SyntheticTraceGenerator(p, seed=0).generate(100_000)
        assert t.instructions <= 100_000 + 101  # at most one record over

    def test_record_cap_respected(self):
        p = profile_with((PhaseSpec(ws_lines=5_000),), gap=0.0)
        t = SyntheticTraceGenerator(p, seed=0).generate(10**9, max_records=500)
        assert len(t) == 500

    def test_budget_met_exactly_keeps_no_extra_record(self):
        # gap 0: every record is one instruction, so the budget is met
        # exactly mid-segment and the next record must not ride along.
        p = profile_with((PhaseSpec(ws_lines=5_000, segment_records=400),), gap=0.0)
        t = SyntheticTraceGenerator(p, seed=0).generate(1_234)
        assert len(t) == t.instructions == 1_234

    def test_gap_mean_controls_intensity(self):
        dense = profile_with((PhaseSpec(ws_lines=5_000),), gap=10.0, name="dense")
        sparse = profile_with((PhaseSpec(ws_lines=5_000),), gap=500.0, name="sparse")
        td = generate_trace(dense, 500_000, seed=0)
        ts = generate_trace(sparse, 500_000, seed=0)
        assert len(td) > 5 * len(ts)


class TestWorkingSetControl:
    def test_footprint_bounded_by_ws(self):
        p = profile_with((PhaseSpec(ws_lines=2_000, p_new=0.3, p_near=0.5),))
        t = generate_trace(p, 400_000, seed=0)
        assert t.distinct_lines() <= 2_000

    def test_streaming_touches_many_lines(self):
        p = profile_with((PhaseSpec(ws_lines=100_000, pattern="stream"),), gap=10.0)
        t = generate_trace(p, 300_000, seed=0)
        assert t.distinct_lines() > 10_000

    def test_scan_is_cyclic(self):
        p = profile_with((PhaseSpec(ws_lines=100, pattern="scan"),), gap=0.0)
        t = SyntheticTraceGenerator(p, seed=0).generate(10**9, max_records=250)
        # A scan revisits address 0's line every 100 records.
        assert t.addrs[0] == t.addrs[100] == t.addrs[200]
        assert len(set(t.addrs[:100])) == 100

    def test_write_fraction_approximate(self):
        p = profile_with((PhaseSpec(ws_lines=1_000),), wf=0.4)
        t = generate_trace(p, 500_000, seed=0)
        assert 0.3 < t.write_fraction < 0.5


class TestAddressStructure:
    def test_addresses_spread_across_virtual_sets(self):
        p = profile_with((PhaseSpec(ws_lines=50_000, p_new=0.5, p_near=0.3),))
        t = generate_trace(p, 300_000, seed=0)
        vsets = {a % VIRTUAL_SETS for a in t.addrs}
        assert len(vsets) > VIRTUAL_SETS // 2

    def test_metadata_propagated(self):
        p = get_profile("libquantum")
        t = generate_trace(p, 100_000, seed=0)
        assert t.name == "libquantum"
        assert t.base_cpi == p.base_cpi
        assert t.mem_mlp == p.mem_mlp
        assert t.footprint_lines == p.footprint_lines


class TestSeededStacks:
    @staticmethod
    def eager(ws_lines: int) -> dict:
        """Every line of the working set appended in allocation order."""
        stacks = {}
        for v in range(min(ws_lines, VIRTUAL_SETS)):
            dq = deque(maxlen=_MAX_STACK_DEPTH)
            for k in range((ws_lines - v - 1) // VIRTUAL_SETS + 1):
                dq.append((k << 12) | v)
            stacks[v] = dq
        return stacks

    @pytest.mark.parametrize(
        "ws_lines", [1, 10, VIRTUAL_SETS - 1, VIRTUAL_SETS, 5_000, 400_000]
    )
    def test_lazy_seed_matches_eager_seed(self, ws_lines):
        lazy = _SeededStacks(ws_lines)
        expected = self.eager(ws_lines)
        assert lazy.n_vsets == len(expected)
        for v, dq in expected.items():
            assert lazy[v] == dq
            assert lazy[v].maxlen == _MAX_STACK_DEPTH


class TestPhases:
    @staticmethod
    def line_id(addr: int) -> int:
        return (addr >> 12) * VIRTUAL_SETS + (addr % VIRTUAL_SETS)

    def test_phases_cycle(self):
        # Scanning phases have deterministic, range-confined addresses, so
        # the per-segment working sets are directly observable.
        p = profile_with(
            (
                PhaseSpec(ws_lines=100, pattern="scan", segment_records=100),
                PhaseSpec(ws_lines=40_000, pattern="scan", segment_records=200),
            ),
            gap=0.0,
        )
        t = SyntheticTraceGenerator(p, seed=0).generate(10**9, max_records=500)
        seg1_ids = [self.line_id(a) for a in t.addrs[:100]]
        seg2_ids = [self.line_id(a) for a in t.addrs[100:300]]
        assert max(seg1_ids) < 100
        assert max(seg2_ids) >= 100  # the wide scan leaves the small region
        # The fourth segment slice is phase 1 again (the cycle repeats).
        seg3_ids = [self.line_id(a) for a in t.addrs[300:400]]
        assert max(seg3_ids) < 100
