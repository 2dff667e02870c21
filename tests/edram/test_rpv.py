"""Unit tests for the Refrint polyphase-valid policy."""

import numpy as np
import pytest

from repro.cache.block import LineState
from repro.config import RefreshConfig
from repro.edram.refresh import PeriodicAllRefresh, PeriodicValidRefresh
from repro.edram.rpv import RefrintPolyphaseValid


@pytest.fixture
def state() -> LineState:
    return LineState(num_sets=16, associativity=4)  # 64 lines


@pytest.fixture
def cfg() -> RefreshConfig:
    return RefreshConfig(
        retention_cycles=1_000, num_banks=4, lines_per_refresh_burst=16, rpv_phases=4
    )


class TestPhaseScheduling:
    def test_boundaries_at_phase_granularity(self, state, cfg):
        eng = RefrintPolyphaseValid(state, cfg)
        assert eng.window_cycles == 250
        eng.advance_to(1_000)
        assert eng.boundaries == 4

    def test_invalid_lines_never_refreshed(self, state, cfg):
        eng = RefrintPolyphaseValid(state, cfg)
        eng.advance_to(10_000)
        assert eng.total_refreshes == 0

    def test_idle_valid_line_refreshed_once_per_retention(self, state, cfg):
        state.valid[0] = True
        state.last_window[0] = 0
        eng = RefrintPolyphaseValid(state, cfg)
        eng.advance_to(10_000)  # 10 retention periods, 40 phase windows
        assert eng.total_refreshes == 10

    def test_line_refreshed_in_its_own_phase(self, state, cfg):
        # A line filled in window 2 comes due at window 6 (2 + 4 phases).
        eng = RefrintPolyphaseValid(state, cfg)
        eng.advance_to(250 * 2)
        state.valid[0] = True
        state.last_window[0] = 2
        eng.advance_to(250 * 5)  # through window 5
        assert eng.total_refreshes == 0
        assert eng.last_update_windows()[0] == 2
        eng.advance_to(250 * 6)
        assert eng.total_refreshes == 1
        assert eng.last_update_windows()[0] == 6

    def test_staggered_lines_spread_across_windows(self, state, cfg):
        state.valid[:] = True
        state.last_window[:] = -(np.arange(64) % 4)
        eng = RefrintPolyphaseValid(state, cfg)
        deltas = []
        for w in range(1, 9):
            eng.advance_to(250 * w)
            deltas.append(eng.take_refresh_delta())
        assert all(d == 16 for d in deltas)


class TestAccessPostponement:
    def test_frequently_touched_line_never_refreshed(self, state, cfg):
        state.valid[0] = True
        eng = RefrintPolyphaseValid(state, cfg)
        # Touch the line every window: its stamp always trails by < P.
        for w in range(40):
            state.last_window[0] = w
            eng.advance_to(250 * (w + 1))
        assert eng.total_refreshes == 0

    def test_access_postpones_next_refresh(self, state, cfg):
        state.valid[0] = True
        state.last_window[0] = 0
        eng = RefrintPolyphaseValid(state, cfg)
        eng.advance_to(250 * 3)  # windows 1-3: not due yet
        state.last_window[0] = 3  # touched in window 3
        eng.advance_to(250 * 6)  # would have been due at window 4
        assert eng.total_refreshes == 0
        eng.advance_to(250 * 7)  # due at 3 + 4 = window 7
        assert eng.total_refreshes == 1

    def test_stale_prewarmed_lines_caught_up(self, state, cfg):
        # Lines stamped far in the past are refreshed at the next boundary.
        state.valid[:8] = True
        state.last_window[:8] = -3
        eng = RefrintPolyphaseValid(state, cfg)
        eng.advance_to(250)
        assert eng.total_refreshes == 8


class TestBounds:
    def test_never_exceeds_periodic_valid_asymptotically(self, state, cfg):
        """Over a long idle horizon RPV == periodic-valid == one per period."""
        state.valid[:32] = True
        state.last_window[:32] = 0
        rpv = RefrintPolyphaseValid(state, cfg)
        rpv.advance_to(20_000)
        pv = PeriodicValidRefresh(state, cfg)
        pv.advance_to(20_000)
        assert rpv.total_refreshes <= pv.total_refreshes

    def test_never_exceeds_baseline(self, state, cfg):
        state.valid[:] = True
        state.last_window[:] = 0
        rpv = RefrintPolyphaseValid(state, cfg)
        base = PeriodicAllRefresh(state, cfg)
        rpv.advance_to(25_000)
        base.advance_to(25_000)
        assert rpv.total_refreshes <= base.total_refreshes


class TestDataIntegrity:
    def test_no_valid_line_ever_older_than_one_retention(self, state, cfg):
        """The core eDRAM integrity invariant: every valid line is refreshed
        or accessed at least once per retention period (after the catch-up
        boundary of its initial stamp)."""
        rng = np.random.default_rng(7)
        state.valid[:] = True
        state.last_window[:] = 0
        eng = RefrintPolyphaseValid(state, cfg)
        phases = cfg.rpv_phases
        last_touch = np.zeros(64, dtype=np.int64)
        for w in range(1, 60):
            # Touch a random subset, then advance one window.
            touched = rng.integers(0, 64, size=5)
            state.last_window[touched] = w - 1
            last_touch[touched] = w - 1
            eng.advance_to(250 * w)
            updated = eng.last_update_windows()
            # After processing the boundary of window w, nothing may be
            # updated earlier than w - P ...
            assert int(updated.min()) >= w - phases
            # ... every line refreshed at w was counted at w ...
            assert eng.take_refresh_delta() == int(np.count_nonzero(updated == w))
            # ... and a refresh keeps a line in its touch's phase.
            assert (updated >= last_touch).all()
            assert ((updated - last_touch) % phases == 0).all()


class TestPhaseClassTally:
    """An armed engine answers each boundary from the caller's tally; the
    scan stays the reference, and disarming checks one against the other."""

    def test_armed_counts_equal_the_scan(self, state, cfg):
        state.valid[:40] = True
        state.last_window[:] = -(np.arange(64) % 4)
        scan = RefrintPolyphaseValid(state, cfg)
        armed = RefrintPolyphaseValid(state, cfg)
        assert armed.arm_tally() == [10, 10, 10, 10]
        scanned, looked_up = [], []
        for w in range(1, 13):
            scan.advance_to(250 * w)
            armed.advance_to(250 * w)
            scanned.append(scan.take_refresh_delta())
            looked_up.append(armed.take_refresh_delta())
        assert looked_up == scanned == [10] * 12
        armed.release_tally()
        assert armed.tally is None

    def test_release_raises_when_the_tally_missed_a_write(self, state, cfg):
        state.valid[:8] = True
        state.last_window[:8] = 0
        eng = RefrintPolyphaseValid(state, cfg)
        eng.arm_tally()
        # A fill the tally never saw.
        state.valid[8] = True
        state.last_window[8] = 1
        with pytest.raises(RuntimeError, match="tally"):
            eng.release_tally()
        assert eng.tally is None
