"""Shared-memory trace transport: round-trip, zero-copy, lifecycle."""

import multiprocessing
import pickle
import subprocess
import sys

import numpy as np
import pytest


from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace, TraceShmHandle


def make_trace() -> Trace:
    return generate_trace(get_profile("gamess"), 200_000, seed=0)


class TestRoundTrip:
    def test_columns_and_metadata_survive(self):
        trace = make_trace()
        shm, handle = trace.to_shm()
        try:
            clone = Trace.from_shm(handle)
            assert np.array_equal(clone.addrs, trace.addrs)
            assert np.array_equal(clone.writes, trace.writes)
            assert np.array_equal(clone.gaps, trace.gaps)
            assert clone.name == trace.name
            assert clone.base_cpi == trace.base_cpi
            assert clone.mem_mlp == trace.mem_mlp
            assert clone.footprint_lines == trace.footprint_lines
            assert clone.instructions == trace.instructions
        finally:
            shm.close()
            shm.unlink()

    def test_empty_trace_round_trips(self):
        shm, handle = Trace(name="empty").to_shm()
        try:
            clone = Trace.from_shm(handle)
            assert len(clone) == 0
            assert handle.nbytes == 0
        finally:
            shm.close()
            shm.unlink()

    def test_scalar_hot_loop_views_match(self):
        # columns() (reference loop) and retire_records() (fast loop) are
        # the simulation's actual views; they must materialise identically
        # from a shm-backed trace, with and without a core address offset.
        trace = make_trace()
        shm, handle = trace.to_shm()
        try:
            clone = Trace.from_shm(handle)
            assert clone.columns() == trace.columns()
            for offset in (0, 1 << 40):
                assert clone.retire_records(
                    offset, clone.base_cpi
                ) == trace.retire_records(offset, trace.base_cpi)
        finally:
            shm.close()
            shm.unlink()


class TestZeroCopy:
    def test_views_do_not_own_their_data(self):
        trace = make_trace()
        shm, handle = trace.to_shm()
        try:
            clone = Trace.from_shm(handle)
            for arr in (clone.addrs, clone.writes, clone.gaps):
                assert not arr.flags.owndata
        finally:
            shm.close()
            shm.unlink()

    def test_views_are_read_only(self):
        trace = make_trace()
        shm, handle = trace.to_shm()
        try:
            clone = Trace.from_shm(handle)
            with pytest.raises(ValueError):
                clone.addrs[0] = 1
            with pytest.raises(ValueError):
                clone.writes[0] = True
        finally:
            shm.close()
            shm.unlink()

    def test_handle_is_small_and_picklable(self):
        trace = make_trace()
        shm, handle = trace.to_shm()
        try:
            payload = pickle.dumps(handle)
            # The whole point: a multi-KB/MB trace ships as a tiny
            # descriptor, not as a copy of its columns.
            assert len(payload) < 512
            assert handle.nbytes == 17 * len(trace)
            assert pickle.loads(payload) == handle
        finally:
            shm.close()
            shm.unlink()

    def test_pickling_shm_backed_trace_copies_and_drops_anchor(self):
        trace = make_trace()
        shm, handle = trace.to_shm()
        try:
            clone = Trace.from_shm(handle)
            revived = pickle.loads(pickle.dumps(clone))
        finally:
            shm.close()
            shm.unlink()
        # The revived trace must be a plain heap copy, alive after the
        # segment is gone, with no shared-memory anchor riding along.
        assert not hasattr(revived, "_shm")
        assert np.array_equal(revived.addrs, trace.addrs)
        assert int(revived.gaps.sum()) == int(trace.gaps.sum())


class TestDerivedColumnCaches:
    """The derived views (the batch kernel's set-index column and the
    fast loop's retire tuples) are per-process caches: they must re-derive
    lazily after transport instead of shipping through pickles or
    shared-memory segments."""

    def test_pickle_drops_and_rederives_columns(self):
        trace = make_trace()
        si = trace.set_index_column(0xFFF)
        recs = {
            offset: trace.retire_records(offset, 1.25)
            for offset in (0, 1 << 40)
        }
        revived = pickle.loads(pickle.dumps(trace))
        assert revived._set_index_columns == {}
        assert revived._retire_records == {}
        assert np.array_equal(revived.set_index_column(0xFFF), si)
        for offset, expected in recs.items():
            assert revived.retire_records(offset, 1.25) == expected

    def test_shm_round_trip_rederives_columns_lazily(self):
        trace = make_trace()
        expected = trace.set_index_column(0xFFF)
        shm, handle = trace.to_shm()
        try:
            # The segment carries only the three raw columns -- a warm
            # set-index cache on the exporting side must not grow it.
            assert handle.nbytes == 17 * len(trace)
            clone = Trace.from_shm(handle)
            assert clone._set_index_columns == {}
            assert clone._retire_records == {}
            col = clone.set_index_column(0xFFF)
            assert np.array_equal(col, expected)
            assert not col.flags.writeable
            # Derived from the attached view, cached on the clone only.
            assert 0xFFF in clone._set_index_columns
            for offset in (0, 1 << 40):
                assert clone.retire_records(
                    offset, trace.base_cpi
                ) == trace.retire_records(offset, trace.base_cpi)
        finally:
            shm.close()
            shm.unlink()

    def test_cached_columns_are_read_only(self):
        trace = make_trace()
        with pytest.raises(ValueError):
            trace.set_index_column(0xFFF)[0] = 1
        with pytest.raises(ValueError):
            trace.set_index_column(0x3F)[0] = 1


def _attach_and_report(handle: TraceShmHandle, queue) -> None:
    from repro.workloads.trace import Trace

    clone = Trace.from_shm(handle)
    queue.put((int(clone.addrs.sum()), int(clone.gaps.sum())))


class TestCrossProcess:
    def test_spawned_child_attaches_without_adopting_lifetime(self):
        # A spawn-context child shares nothing with us, so this exercises
        # the real attach path (fork children usually inherit the trace
        # cache instead).  Crucially, the child's *exit* must not unlink
        # the segment (the Python <3.13 resource-tracker trap).
        trace = make_trace()
        shm, handle = trace.to_shm()
        try:
            ctx = multiprocessing.get_context("spawn")
            queue = ctx.Queue()
            child = ctx.Process(target=_attach_and_report, args=(handle, queue))
            child.start()
            sums = queue.get(timeout=120)
            child.join(timeout=30)
            assert child.exitcode == 0
            assert sums == (int(trace.addrs.sum()), int(trace.gaps.sum()))
            # Re-attach after the child died: the segment must survive.
            again = Trace.from_shm(handle)
            assert np.array_equal(again.addrs, trace.addrs)
        finally:
            shm.close()
            shm.unlink()

    @pytest.mark.skipif(
        sys.version_info >= (3, 13),
        reason="track=False keeps attachments out of the resource tracker",
    )
    def test_attach_leaves_the_creators_registration_alone(self, repro_env):
        # Before 3.13 an attacher shares the creator's resource tracker.
        # Unregistering on attach erased the creator's registration, so
        # the creator's unlink made the tracker raise KeyError.
        script = (
            "from multiprocessing import resource_tracker\n"
            "from repro.experiments.pool import SharedTraceStore\n"
            "from repro.workloads.profiles import get_profile\n"
            "from repro.workloads.synthetic import generate_trace\n"
            "from repro.workloads.trace import Trace\n"
            "store = SharedTraceStore()\n"
            "trace = generate_trace(get_profile('gamess'), 20_000, seed=0)\n"
            "attached = Trace.from_shm(store.acquire('k', trace))\n"
            "store.close()\n"
            "resource_tracker._resource_tracker._stop()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=repro_env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
