"""Property-based tests for the synthetic trace generator."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.synthetic import (
    VIRTUAL_SETS,
    PhaseSpec,
    SyntheticTraceGenerator,
)

phase_specs = st.builds(
    PhaseSpec,
    ws_lines=st.integers(min_value=10, max_value=30_000),
    p_new=st.floats(min_value=0.0, max_value=0.5),
    p_near=st.floats(min_value=0.0, max_value=0.5),
    d_mean=st.floats(min_value=1.0, max_value=20.0),
    pattern=st.sampled_from(["mixture", "scan", "stream"]),
    segment_records=st.integers(min_value=50, max_value=2_000),
)


def make_profile(phases, gap, wf):
    return BenchmarkProfile(
        name="proptest",
        acronym="Pp",
        suite="spec",
        phases=tuple(phases),
        write_fraction=wf,
        gap_mean=gap,
        base_cpi=1.0,
        footprint_lines=1,
    )


@given(
    phases=st.lists(phase_specs, min_size=1, max_size=3),
    gap=st.floats(min_value=0.0, max_value=200.0),
    wf=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_trace_structurally_valid(phases, gap, wf, seed):
    profile = make_profile(phases, gap, wf)
    trace = SyntheticTraceGenerator(profile, seed=seed).generate(
        200_000, max_records=2_000
    )
    assert len(trace.addrs) == len(trace.writes) == len(trace.gaps)
    assert len(trace) >= 1
    assert all(a >= 0 for a in trace.addrs)
    assert all(g >= 0 for g in trace.gaps)
    # The budget may be overshot by at most the final record (whose gap is
    # a geometric sample): without it, the trace is within budget.
    without_last = trace.instructions - (trace.gaps[-1] + 1)
    assert without_last < 200_000


@given(
    phases=st.lists(phase_specs, min_size=1, max_size=2),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_addresses_within_union_of_working_sets(phases, seed):
    """Every generated address decodes to a line id inside some phase's
    working set (phases share the address space)."""
    profile = make_profile(phases, 10.0, 0.3)
    trace = SyntheticTraceGenerator(profile, seed=seed).generate(
        10**9, max_records=1_500
    )
    max_ws = max(p.ws_lines for p in phases)
    for addr in trace.addrs:
        line_id = (addr >> 12) * VIRTUAL_SETS + (addr % VIRTUAL_SETS)
        assert 0 <= line_id < max_ws


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_generation_is_deterministic_per_seed(seed):
    profile = make_profile(
        [PhaseSpec(ws_lines=500, segment_records=200)], 10.0, 0.3
    )
    a = SyntheticTraceGenerator(profile, seed=seed).generate(50_000)
    b = SyntheticTraceGenerator(profile, seed=seed).generate(50_000)
    assert np.array_equal(a.addrs, b.addrs)
    assert np.array_equal(a.gaps, b.gaps)
    assert np.array_equal(a.writes, b.writes)


@given(
    phases=st.lists(phase_specs, min_size=1, max_size=3),
    gap=st.floats(min_value=0.0, max_value=200.0),
    seed=st.integers(min_value=0, max_value=100),
    budgets=st.lists(
        st.integers(min_value=1, max_value=400_000), min_size=2, max_size=2
    ),
)
@settings(max_examples=40, deadline=None)
def test_smaller_budget_is_a_prefix(phases, gap, seed, budgets):
    """A budget cut never changes the records before it: ``generate(B)``
    is a prefix of ``generate(B')`` for ``B <= B'``."""
    small, large = sorted(budgets)
    profile = make_profile(phases, gap, 0.3)
    a = SyntheticTraceGenerator(profile, seed=seed).generate(small)
    b = SyntheticTraceGenerator(profile, seed=seed).generate(large)
    n = len(a)
    assert n <= len(b)
    assert np.array_equal(a.addrs, b.addrs[:n])
    assert np.array_equal(a.writes, b.writes[:n])
    assert np.array_equal(a.gaps, b.gaps[:n])
