"""Tests for campaign telemetry: snapshots, merge semantics, progress
reporting and the dashboard.

The aggregator tests pin what the campaign rollup relies on: pool
workers finish units in no fixed order, so folding them in any order
gives the same totals, and an empty snapshot changes nothing.
Integer-valued counters are used so equality is exact (float addition of
integers below 2**53 never rounds) -- the same property the manifest
consistency check exploits.
"""

import io
import itertools
import signal

import pytest

from repro.obs.campaign import (
    CampaignAggregator,
    CampaignDashboard,
    ProgressReporter,
    TELEMETRY_VERSION,
    WorkerAborted,
    WorkerObs,
    begin_worker_obs,
    current_worker_obs,
    end_worker_obs,
    format_seconds,
    install_sigterm_flush,
    is_telemetry,
    merge_counter_maps,
    merge_histogram_states,
    telemetry_from_message,
)


def make_snapshot(counters=(), histogram=(), partial=False):
    """A real WorkerObs snapshot with the given integer counter values."""
    obs = WorkerObs()
    for name, value in counters:
        obs.registry.counter(name).inc(value)
    for name, observations in histogram:
        h = obs.registry.histogram(name, buckets=(1.0, 10.0))
        for v in observations:
            h.observe(v)
    return obs.snapshot(partial=partial)


def agg_of(*unit_snapshots):
    """Aggregator over (unit-name, snapshot) pairs.

    Unit names are workload names in real sweeps -- globally unique --
    so the tests must not reuse a name.
    """
    agg = CampaignAggregator()
    for name, snap in unit_snapshots:
        agg.add_unit(name, snap)
    return agg


SNAP_A = ("ua", make_snapshot(
    counters=[("sim.runs", 3), ("l2.hits", 100), ("l2.misses", 7)],
    histogram=[("lat", (0.5, 5.0, 50.0))],
))
SNAP_B = ("ub", make_snapshot(
    counters=[("sim.runs", 2), ("l2.hits", 40), ("faults.corrected", 1)],
    histogram=[("lat", (2.0,))],
))
SNAP_C = ("uc", make_snapshot(
    counters=[("l2.misses", 11), ("faults.corrected", 4)],
    histogram=[("lat", (100.0, 0.1))],
))


class TestMergeCounterMaps:
    def test_keywise_sum_with_missing_keys_as_zero(self):
        out = merge_counter_maps({"a": 1.0, "b": 2.0}, {"b": 3.0, "c": 4.0})
        assert out == {"a": 1.0, "b": 5.0, "c": 4.0}

    def test_operands_not_mutated(self):
        a, b = {"x": 1.0}, {"x": 2.0}
        merge_counter_maps(a, b)
        assert a == {"x": 1.0} and b == {"x": 2.0}


class TestMergeHistogramStates:
    def test_counts_sums_and_buckets_all_add(self):
        a = {"count": 3, "sum": 55.5, "buckets": {"1.0": 1, "+Inf": 2}}
        b = {"count": 1, "sum": 2.0, "buckets": {"1.0": 1, "10.0": 1}}
        out = merge_histogram_states(a, b)
        assert out["count"] == 4
        assert out["sum"] == 57.5
        assert out["buckets"] == {"1.0": 2, "10.0": 1, "+Inf": 2}

    def test_empty_state_is_identity(self):
        state = {"count": 2, "sum": 3.0, "buckets": {"+Inf": 2}}
        assert merge_histogram_states({}, state) == state
        assert merge_histogram_states(state, {}) == state


class TestAggregatorAlgebra:
    def test_add_unit_order_does_not_matter(self):
        orders = itertools.permutations((SNAP_A, SNAP_B, SNAP_C))
        rollups = [agg_of(*order).as_dict() for order in orders]
        assert all(r == rollups[0] for r in rollups[1:])

    def test_empty_snapshot_is_identity(self):
        base = agg_of(SNAP_A)
        with_empty = agg_of(SNAP_A)
        with_empty.add_unit("empty", make_snapshot())
        assert with_empty.counters == base.counters
        assert with_empty.histograms == base.histograms

    def test_integer_counter_totals_are_exact_sums(self):
        agg = agg_of(SNAP_A, SNAP_B, SNAP_C)
        assert agg.counters["sim.runs"] == 5
        assert agg.counters["l2.hits"] == 140
        assert agg.counters["l2.misses"] == 18
        assert agg.counters["faults.corrected"] == 5
        assert agg.histograms["lat"]["count"] == 6

    def test_lost_units_recorded_not_merged(self):
        agg = agg_of(SNAP_A)
        assert agg.add_unit("mute", None) is False
        assert agg.add_unit("garbled", {"v": 999}) is False
        assert agg.lost == ["mute", "garbled"]
        assert agg.units_merged == 1
        assert "mute" not in agg.per_unit

    def test_rollup_headlines(self):
        agg = agg_of(SNAP_A, SNAP_B, SNAP_C)
        roll = agg.rollup()
        assert roll["units_merged"] == 3
        assert roll["runs"] == 5
        assert roll["records"] == 158  # 140 hits + 18 misses
        assert roll["l2_hit_rate"] == pytest.approx(140 / 158)
        assert roll["faults"] == {"corrected": 5}

    def test_gauges_stay_per_unit_only(self):
        obs = WorkerObs()
        obs.registry.gauge("active_fraction").set(0.75)
        agg = CampaignAggregator()
        agg.add_unit("u", obs.snapshot())
        assert "active_fraction" not in agg.counters
        assert agg.per_unit["u"]["gauges"]["active_fraction"] == 0.75


class TestWorkerObs:
    def test_technique_span_attributes_counter_deltas(self):
        obs = WorkerObs()
        with obs.technique_span("esteem"):
            obs.registry.counter("sim.instructions").inc(1000)
        with obs.technique_span("rpv"):
            obs.registry.counter("sim.instructions").inc(500)
        snap = obs.snapshot()
        per = snap["per_technique"]
        assert per["esteem"]["counters"]["sim.instructions"] == 1000
        assert per["rpv"]["counters"]["sim.instructions"] == 500
        assert per["esteem"]["wall_s"] >= 0.0

    def test_snapshot_partial_flag_and_version(self):
        snap = WorkerObs().snapshot(partial=True)
        assert snap["v"] == TELEMETRY_VERSION
        assert snap["partial"] is True
        assert is_telemetry(snap)

    def test_begin_current_end_lifecycle(self):
        assert current_worker_obs() is None
        obs = begin_worker_obs()
        try:
            assert current_worker_obs() is obs
        finally:
            end_worker_obs()
        assert current_worker_obs() is None


class TestWireHelpers:
    def test_ok_message_carries_telemetry_in_slot_2(self):
        snap = make_snapshot(counters=[("sim.runs", 1)])
        assert telemetry_from_message(("ok", object(), snap)) == snap

    def test_error_and_aborted_messages_carry_it_in_slot_3(self):
        snap = make_snapshot(partial=True)
        assert telemetry_from_message(("error", "ValueError", "x", snap)) == snap
        assert (
            telemetry_from_message(("aborted", "WorkerAborted", "y", snap))
            == snap
        )

    def test_crash_and_garbage_yield_none(self):
        assert telemetry_from_message(None) is None
        assert telemetry_from_message(("ok", object())) is None
        assert telemetry_from_message(("ok", object(), {"v": 2})) is None
        assert telemetry_from_message(("error", "T", "d")) is None
        assert telemetry_from_message("nonsense") is None

    def test_is_telemetry_rejects_wrong_shapes(self):
        assert not is_telemetry({})
        assert not is_telemetry({"v": TELEMETRY_VERSION})
        assert not is_telemetry(
            {"v": TELEMETRY_VERSION, "metrics": {}, "partial": "yes"}
        )


class TestSigtermFlush:
    def test_install_rebinds_and_raises(self):
        previous = signal.getsignal(signal.SIGTERM)
        try:
            assert install_sigterm_flush() is True
            handler = signal.getsignal(signal.SIGTERM)
            with pytest.raises(WorkerAborted):
                handler(signal.SIGTERM, None)
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_worker_aborted_pierces_except_exception(self):
        with pytest.raises(WorkerAborted):
            try:
                raise WorkerAborted("terminated")
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("WorkerAborted must not be an Exception")


class TestProgressReporter:
    def test_progress_lines_with_eta(self):
        sink = io.StringIO()
        rep = ProgressReporter(3, label="sweep", stream=sink)
        rep.advance("gamess", 0.5)
        rep.advance("povray")
        rep.finish()
        out = sink.getvalue()
        assert "[1/3] gamess done in 500ms" in out
        assert "[2/3] povray done," in out
        assert "ETA" in out
        assert "finished 2/3" in out

    def test_disabled_reporter_is_silent(self):
        sink = io.StringIO()
        rep = ProgressReporter(2, stream=sink, enabled=False)
        rep.advance("x")
        rep.finish()
        assert sink.getvalue() == ""
        assert rep.done == 1

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            ProgressReporter(-1)


class TestFormatSeconds:
    def test_ranges(self):
        assert format_seconds(0.95) == "950ms"
        assert format_seconds(12.34) == "12.34s"
        assert format_seconds(250) == "4m10s"
        assert format_seconds(3700) == "1h01m"
        assert format_seconds(-2) == "-2.00s"


class _TtyStream(io.StringIO):
    def isatty(self):
        return True


class TestCampaignDashboard:
    def test_non_tty_falls_back_to_line_per_unit(self):
        stream = io.StringIO()
        dash = CampaignDashboard(2, label="sweep", stream=stream)
        assert dash.live is False
        dash.advance("gamess", 1.0)
        out = stream.getvalue()
        assert "gamess" in out and "\r" not in out

    def test_tty_repaints_one_status_line(self):
        stream = _TtyStream()
        dash = CampaignDashboard(4, label="sweep", stream=stream)
        assert dash.live is True
        dash.status(running=2, failed=1, retries=3, recycled=1,
                    instructions=5_000_000.0, cache_hit_pct=25.0)
        dash.advance("gamess")
        out = stream.getvalue()
        assert out.count("\r") >= 2
        last = out.rsplit("\r", 1)[-1]
        assert "1/4" in last
        assert "fail 1" in last

    def test_finish_ends_with_newline_and_summary(self):
        stream = _TtyStream()
        dash = CampaignDashboard(1, label="sweep", stream=stream)
        dash.advance("povray")
        dash.finish()
        assert "\n" in stream.getvalue()

    def test_disabled_dashboard_is_silent(self):
        stream = _TtyStream()
        dash = CampaignDashboard(1, label="sweep", stream=stream,
                                 enabled=False)
        dash.status(running=1)
        dash.advance("x")
        dash.finish()
        assert stream.getvalue() == ""
