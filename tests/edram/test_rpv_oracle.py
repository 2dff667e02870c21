"""Differential test: RPV's class count against a restamping oracle.

The oracle is the original RPV scan: at boundary ``w`` it refreshes every
valid line stamped ``w - P`` or earlier and restamps it ``w``.  The engine
counts the lines of ``w``'s phase class and writes nothing back.  Both run
in lockstep over the same touches, invalidations and refills, with stale
starting stamps (some far below ``1 - P``) and advances that cross several
boundaries in one call.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.block import LineState
from repro.config import RefreshConfig
from repro.edram.refresh import RefreshEngine
from repro.edram.rpv import RefrintPolyphaseValid

PHASE_CYCLES = 10
NUM_LINES = 32


class RestampOracle(RefreshEngine):
    """The restamping RPV scan, kept as the reference."""

    name = "rpv-oracle"

    def __init__(self, state, config):
        super().__init__(state, config)
        self.phases = config.rpv_phases
        self.counts = []

    @property
    def window_cycles(self):
        return self.config.phase_cycles

    def _lines_to_refresh(self, boundary_cycle):
        w = boundary_cycle // self.config.phase_cycles
        state = self.state
        idx = np.flatnonzero(state.valid & (state.last_window <= w - self.phases))
        state.last_window[idx] = w
        self.counts.append(idx.size)
        return idx.size


class RecordingRpv(RefrintPolyphaseValid):
    def __init__(self, state, config):
        super().__init__(state, config)
        self.counts = []

    def _lines_to_refresh(self, boundary_cycle):
        count = super()._lines_to_refresh(boundary_cycle)
        self.counts.append(count)
        return count


lines = st.lists(st.integers(0, NUM_LINES - 1), max_size=6)
steps = st.lists(
    st.tuples(
        lines,  # touched in the current window (hits and fills alike)
        lines,  # invalidated (fault injector, decay-style drops)
        lines,  # refilled in the current window
        st.integers(0, 3 * PHASE_CYCLES * 8),  # cycles to advance
    ),
    max_size=25,
)


@given(
    phases=st.sampled_from([1, 2, 4, 8]),
    valid=st.lists(st.booleans(), min_size=NUM_LINES, max_size=NUM_LINES),
    stamps=st.lists(st.integers(-60, 0), min_size=NUM_LINES, max_size=NUM_LINES),
    steps=steps,
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_class_count_matches_restamping_scan(phases, valid, stamps, steps):
    cfg = RefreshConfig(retention_cycles=PHASE_CYCLES * phases, rpv_phases=phases)
    states = []
    for _ in range(2):
        s = LineState(num_sets=NUM_LINES // 4, associativity=4)
        s.valid[:] = valid
        s.last_window[:] = np.where(valid, stamps, -1)
        states.append(s)
    eng_state, ref_state = states
    eng = RecordingRpv(eng_state, cfg)
    ref = RestampOracle(ref_state, cfg)

    cycle = 0
    for touched, dropped, refilled, delta in steps:
        window = cycle // PHASE_CYCLES
        for s in states:
            s.last_window[[g for g in touched if s.valid[g]]] = window
            s.valid[dropped] = False
            s.last_window[dropped] = -1
            s.valid[refilled] = True
            s.last_window[refilled] = window
        cycle += delta
        eng.advance_to(cycle)
        ref.advance_to(cycle)
        assert eng.counts == ref.counts
        assert eng.total_refreshes == ref.total_refreshes
        if eng.boundaries:
            # Once the first boundary has caught up the stale stamps, the
            # derived last-update window is exactly the oracle's stamp.
            assert (eng.last_update_windows() == ref_state.last_window).all()
    assert np.array_equal(eng_state.valid, ref_state.valid)
