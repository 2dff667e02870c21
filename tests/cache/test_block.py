"""Unit tests for the global per-line state arrays."""

import numpy as np
import pytest

from repro.cache.block import LineState


@pytest.fixture
def state() -> LineState:
    return LineState(num_sets=8, associativity=4)


class TestCounts:
    def test_initial_state(self, state):
        assert state.num_lines == 32
        assert state.valid_count() == 0
        assert state.active_count() == 32
        assert state.active_fraction() == 1.0

    def test_gidx_layout(self, state):
        assert state.gidx(0, 0) == 0
        assert state.gidx(1, 0) == 4
        assert state.gidx(2, 3) == 11

    def test_snapshot(self, state):
        state.valid[0] = True
        state.dirty[0] = True
        snap = state.snapshot()
        assert snap == {"valid": 1, "dirty": 1, "active": 32}


class TestActiveMask:
    def test_set_module_active_ways_pattern(self, state):
        state.set_module_active_ways(0, 4, 2)
        # Sets 0-3: ways 0,1 on; ways 2,3 off.
        for s in range(4):
            assert list(state.active[s * 4 : s * 4 + 4]) == [True, True, False, False]
        # Sets 4-7 untouched.
        assert state.active[16:].all()

    def test_active_fraction_after_gating(self, state):
        state.set_module_active_ways(0, 8, 1)
        assert state.active_fraction() == pytest.approx(0.25)

    def test_full_width_pattern(self, state):
        state.set_module_active_ways(0, 8, 4)
        assert state.active.all()

    def test_last_window_default(self, state):
        assert (state.last_window == -1).all()
        assert state.last_window.dtype == np.int64
