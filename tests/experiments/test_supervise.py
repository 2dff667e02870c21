"""Tests for the parent's graceful-drain signal watch."""

import signal
import threading

from repro.experiments.parallel import ParentSignalWatch


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
