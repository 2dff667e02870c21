"""Unit tests for trace containers and cursors."""

import numpy as np
import pytest

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
