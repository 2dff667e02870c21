"""Tests for the supervision primitives (deadline budgets, signal
watch, jitter)."""

import signal
import threading

import pytest

from repro.experiments.supervise import (
    DeadlineBudget,
    ParentSignalWatch,
    full_jitter_delay,
)


class TestDeadlineBudget:
    def test_expiry(self):
        budget = DeadlineBudget(10.0, start=100.0)
        assert not budget.expired(now=105.0)
        assert budget.expired(now=110.0)
        assert budget.expires_at == pytest.approx(110.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineBudget(0.0)


class TestParentSignalWatch:
    def test_flag_set_not_raised(self):
        with ParentSignalWatch() as watch:
            assert watch.signame is None
            signal.raise_signal(signal.SIGTERM)
            # The handler only sets the flag -- no exception propagates.
            assert watch.signame == "SIGTERM"

    def test_previous_handlers_restored(self):
        before = signal.getsignal(signal.SIGTERM)
        with ParentSignalWatch():
            assert signal.getsignal(signal.SIGTERM) != before
        assert signal.getsignal(signal.SIGTERM) == before

    def test_inert_off_main_thread(self):
        seen = {}

        def run():
            with ParentSignalWatch() as watch:
                seen["signame"] = watch.signame

        t = threading.Thread(target=run)
        t.start()
        t.join()
        assert seen == {"signame": None}


class TestFullJitterDelay:
    def test_deterministic_for_same_key(self):
        a = full_jitter_delay(0.5, 7, "gamess", 2)
        b = full_jitter_delay(0.5, 7, "gamess", 2)
        assert a == b

    def test_window_doubles_per_attempt(self):
        for attempt in (1, 2, 3, 4):
            window = 0.5 * 2 ** (attempt - 1)
            for seed in range(20):
                d = full_jitter_delay(0.5, seed, "w", attempt)
                assert 0.0 <= d < window

    def test_uncorrelated_across_workloads(self):
        delays = {
            full_jitter_delay(0.5, 0, w, 1)
            for w in ("gamess", "povray", "mcf", "milc")
        }
        assert len(delays) == 4, "lockstep retries defeat the jitter"

    def test_zero_base_is_zero(self):
        assert full_jitter_delay(0.0, 0, "w", 1) == 0.0
