"""Unit tests for trace containers and cursors."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.profiles import get_profile
from repro.workloads.synthetic import generate_trace
from repro.workloads.trace import Trace, TraceCorruptionError, TraceCursor


@pytest.fixture
def trace() -> Trace:
    return Trace(
        name="toy",
        addrs=[10, 20, 30],
        writes=[False, True, False],
        gaps=[5, 0, 2],
        base_cpi=1.25,
        mem_mlp=2.0,
        footprint_lines=123,
    )


class TestTrace:
    def test_len(self, trace):
        assert len(trace) == 3

    def test_instructions_counts_gaps_plus_records(self, trace):
        assert trace.instructions == 5 + 0 + 2 + 3

    def test_write_fraction(self, trace):
        assert trace.write_fraction == pytest.approx(1 / 3)

    def test_distinct_lines(self, trace):
        assert trace.distinct_lines() == 3

    def test_records_iteration(self, trace):
        assert list(zip(*trace.columns())) == [
            (10, False, 5), (20, True, 0), (30, False, 2)
        ]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            Trace(name="bad", addrs=[1], writes=[], gaps=[1])

    def test_empty_trace_write_fraction(self):
        assert Trace(name="empty").write_fraction == 0.0


class TestSerialisation:
    def test_save_load_roundtrip(self, trace, tmp_path):
        path = tmp_path / "t.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == trace.name
        assert np.array_equal(loaded.addrs, trace.addrs)
        assert np.array_equal(loaded.writes, trace.writes)
        assert np.array_equal(loaded.gaps, trace.gaps)
        assert loaded.base_cpi == trace.base_cpi
        assert loaded.mem_mlp == trace.mem_mlp
        assert loaded.footprint_lines == trace.footprint_lines

    def test_pickle_roundtrip_rebuilds_caches(self, trace):
        # The pickle path (parallel sweep workers) ships only the NumPy
        # columns; cached list/record views must be rebuilt lazily on the
        # other side, not carried across.
        import pickle

        _ = trace.columns()  # populate caches before pickling
        _ = trace.retire_records(0, trace.base_cpi)
        loaded = pickle.loads(pickle.dumps(trace))
        assert np.array_equal(loaded.addrs, trace.addrs)
        assert np.array_equal(loaded.writes, trace.writes)
        assert np.array_equal(loaded.gaps, trace.gaps)
        assert loaded.instructions == trace.instructions
        assert loaded.columns() == trace.columns()
        recs, gi_cum = loaded.retire_records(0, loaded.base_cpi)
        ref_recs, ref_cum = trace.retire_records(0, trace.base_cpi)
        assert recs == ref_recs and gi_cum == ref_cum

    def test_load_defaults_missing_optional_fields(self, trace, tmp_path):
        # Archives written before base_cpi / mem_mlp / footprint_lines
        # existed carry only the columns; load must default the rest.
        path = tmp_path / "old.npz"
        np.savez(
            path,
            name=np.array(trace.name),
            addrs=trace.addrs,
            writes=trace.writes,
            gaps=trace.gaps,
        )
        loaded = Trace.load(path)
        assert np.array_equal(loaded.addrs, trace.addrs)
        assert loaded.base_cpi == 1.0
        assert loaded.mem_mlp == 1.0
        assert loaded.footprint_lines == 0


class TestCorruption:
    """Trace.load integrity checks: every failure names the file."""

    def test_truncated_archive_rejected(self, trace, tmp_path):
        path = tmp_path / "cut.npz"
        trace.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TraceCorruptionError, match="cut.npz"):
            Trace.load(path)

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(TraceCorruptionError, match="garbage.npz"):
            Trace.load(path)

    def test_missing_required_column_rejected(self, trace, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(
            path,
            name=np.array(trace.name),
            addrs=trace.addrs,
            writes=trace.writes,  # gaps column lost
        )
        with pytest.raises(TraceCorruptionError, match=r"partial.npz.*gaps"):
            Trace.load(path)

    def test_inconsistent_column_lengths_rejected(self, trace, tmp_path):
        path = tmp_path / "ragged.npz"
        np.savez(
            path,
            name=np.array(trace.name),
            addrs=np.asarray(trace.addrs)[:-1],
            writes=trace.writes,
            gaps=trace.gaps,
        )
        with pytest.raises(
            TraceCorruptionError, match="inconsistent column lengths"
        ):
            Trace.load(path)

    def test_record_count_mismatch_rejected(self, trace, tmp_path):
        path = tmp_path / "short.npz"
        np.savez(
            path,
            name=np.array(trace.name),
            addrs=trace.addrs,
            writes=trace.writes,
            gaps=trace.gaps,
            n_records=np.array(999),
        )
        with pytest.raises(TraceCorruptionError, match="n_records=999"):
            Trace.load(path)

    def test_error_is_a_value_error(self, tmp_path):
        # Existing callers catching ValueError keep working.
        assert issubclass(TraceCorruptionError, ValueError)

    def test_save_records_count(self, trace, tmp_path):
        path = tmp_path / "counted.npz"
        trace.save(path)
        with np.load(path) as data:
            assert int(data["n_records"]) == len(trace)


class TestRetireView:
    """The fast loop's columnar view: exact values, few GC-tracked
    objects and a bounded size per record."""

    @pytest.fixture(scope="class")
    def sphinx(self) -> Trace:
        # ~10k records, seed 0.
        return generate_trace(get_profile("sphinx"), 1_000_000, seed=0)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        recs=st.lists(
            st.tuples(
                st.integers(0, (1 << 40) - 1),
                st.booleans(),
                st.integers(0, 5_000),
            ),
            min_size=1,
            max_size=60,
        ),
        base_cpi=st.one_of(
            st.sampled_from([1.1, 0.7, 1.0, 1.25, 0.3]),
            st.floats(0.05, 16.0, allow_nan=False),
        ),
        offset=st.sampled_from([0, 1 << 40]),
    )
    def test_columns_are_exact(self, recs, base_cpi, offset):
        addrs, writes, gaps = map(list, zip(*recs))
        trace = Trace(
            name="prop", addrs=addrs, writes=writes, gaps=gaps,
            base_cpi=base_cpi,
        )
        (A, W, C), gi_cum = trace.retire_records(offset, base_cpi)
        assert len(A) == len(W) == len(C) == len(gi_cum) == len(recs)
        for k, (addr, is_write, gap) in enumerate(recs):
            assert type(A[k]) is int and A[k] == addr | offset
            assert W[k] is is_write
            assert C[k].hex() == ((gap + 1) * base_cpi).hex()
        assert list(gi_cum) == list(itertools.accumulate(g + 1 for g in gaps))

    def test_build_adds_few_gc_tracked_objects(self, sphinx):
        # System.run builds the view with the collector paused; objects it
        # leaves young are walked by the next collections after the run.
        sphinx._retire_records.clear()
        gc.disable()
        try:
            before = len(gc.get_objects())
            view = sphinx.retire_records(1 << 40, sphinx.base_cpi)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(view[1]) == len(sphinx) > 5_000
        assert added < 100

    def test_view_holds_at_most_72_bytes_per_record(self, sphinx):
        for offset in (0, 1 << 40):
            sphinx._retire_records.clear()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                view = sphinx.retire_records(offset, sphinx.base_cpi)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(view[1]) == len(sphinx)
            assert held / len(sphinx) <= 72, (offset, held / len(sphinx))


class TestCursor:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceCursor(Trace(name="empty"))

    def test_sequential_iteration(self, trace):
        cur = TraceCursor(trace)
        assert cur.next_record() == (10, False, 5)
        assert cur.next_record() == (20, True, 0)
        assert cur.wraps == 0

    def test_wraps_at_end(self, trace):
        cur = TraceCursor(trace)
        for _ in range(3):
            cur.next_record()
        assert cur.wraps == 1
        assert cur.next_record() == (10, False, 5)

    def test_multiple_wraps(self, trace):
        cur = TraceCursor(trace)
        for _ in range(7):
            cur.next_record()
        assert cur.wraps == 2
