"""Tests for the resilient sweep harness (Plane 2: timeouts, retries,
checkpoint/resume, degradation) and the sweep checkpoint format."""

import json
import multiprocessing
import pickle
import time

import pytest

from repro.config import SimConfig
from repro.experiments.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.experiments.parallel import (
    TRANSIENT_EXC_TYPES,
    ParallelWorkerError,
    parallel_compare,
    resilient_sweep,
)
from repro.experiments.pool import active_shm_segments
from repro.experiments.supervise import LETHAL_EXC_TYPES
from repro.experiments.runner import (
    Runner,
    comparison_from_dict,
    comparison_to_dict,
)
from repro.faults import FaultPlan

CFG_KW = dict(instructions_per_core=200_000, interval_cycles=100_000)


def config():
    return SimConfig.scaled(**CFG_KW)


class TestWorkerErrorExcType:
    def test_exc_type_in_str(self):
        err = ParallelWorkerError("gamess", "boom", "ValueError")
        assert "[ValueError]" in str(err)
        assert "gamess" in str(err)

    def test_exc_type_survives_pickling(self):
        # The retry classifier runs parent-side on errors raised in
        # worker processes; the type name must survive the pickle path.
        err = ParallelWorkerError("gamess", "boom", "MemoryError")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.workload == "gamess"
        assert clone.detail == "boom"
        assert clone.exc_type == "MemoryError"

    def test_default_exc_type(self):
        assert ParallelWorkerError("w", "d").exc_type == "ParallelWorkerError"

    def test_classifier_covers_harness_failure_modes(self):
        assert {"TimeoutError", "WorkerCrash", "CorruptResult"} <= (
            TRANSIENT_EXC_TYPES
        )
        assert "ValueError" not in TRANSIENT_EXC_TYPES
        assert "ChaosError" not in TRANSIENT_EXC_TYPES


class TestCleanSweep:
    def test_matches_parallel_compare_exactly(self):
        cfg = config()
        resilient = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=2
        )
        plain = parallel_compare(cfg, ["gamess", "povray"], ("esteem",), jobs=2)
        assert not resilient.degraded
        assert resilient.attempts == 2 and resilient.retries == 0
        for r, p in zip(resilient.comparisons["esteem"], plain["esteem"]):
            assert r.workload == p.workload
            assert r.result == p.result
            assert r.baseline == p.baseline

    def test_input_validation(self):
        with pytest.raises(ValueError):
            resilient_sweep(config(), [], ("esteem",))
        with pytest.raises(ValueError):
            resilient_sweep(config(), ["gamess"], ())
        with pytest.raises(ValueError):
            resilient_sweep(config(), ["gamess"], ("esteem",), jobs=0)
        with pytest.raises(ValueError):
            resilient_sweep(config(), ["gamess"], ("esteem",), retries=-1)
        with pytest.raises(ValueError):
            resilient_sweep(config(), ["gamess"], ("esteem",), timeout_s=0)


class TestRetries:
    def test_crash_recovers_bit_for_bit(self):
        cfg = config()
        plan = FaultPlan(chaos={"gamess": ("crash",)})
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.01, plan=plan,
        )
        assert not result.degraded
        assert result.attempts == 2 and result.retries == 1
        ref = Runner(cfg).compare("gamess", "esteem")
        (comp,) = result.comparisons["esteem"]
        assert comp.result == ref.result
        assert comp.baseline == ref.baseline

    def test_timeout_terminates_hang_and_recovers(self):
        cfg = config()
        plan = FaultPlan(chaos={"gamess": ("hang",)}, hang_seconds=60.0)
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            timeout_s=2.0, retries=2, backoff_s=0.01, plan=plan,
        )
        assert not result.degraded
        assert result.retries == 1
        ref = Runner(cfg).compare("gamess", "esteem")
        assert result.comparisons["esteem"][0].result == ref.result

    def test_corrupt_result_is_rejected_and_retried(self):
        cfg = config()
        plan = FaultPlan(chaos={"gamess": ("corrupt",)})
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.01, plan=plan,
        )
        assert not result.degraded
        assert result.retries == 1
        ref = Runner(cfg).compare("gamess", "esteem")
        assert result.comparisons["esteem"][0].result == ref.result

    def test_deterministic_failure_fails_fast(self):
        # A scripted ChaosError is a stand-in for a unit that raises the
        # same exception on every attempt: no retry budget is burned.
        cfg = config()
        plan = FaultPlan(chaos={"gamess": ("raise", "raise", "raise")})
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            retries=5, backoff_s=0.01, plan=plan,
        )
        assert result.degraded
        assert result.attempts == 1 and result.retries == 0
        (failure,) = result.failed
        assert failure.exc_type == "ChaosError"
        assert failure.attempts == 1


class TestDegradation:
    def test_permanent_crash_degrades_with_manifest(self):
        cfg = config()
        plan = FaultPlan(chaos={"povray": ("crash",) * 8})
        result = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=2,
            retries=1, backoff_s=0.01, plan=plan,
        )
        assert result.degraded
        assert result.completed == ["gamess"]
        (failure,) = result.failed
        assert failure.workload == "povray"
        assert failure.attempts == 2  # 1 attempt + 1 retry
        assert failure.exc_type == "WorkerCrash"
        manifest = result.manifest()
        json.dumps(manifest)  # must be JSON-able as written
        assert manifest["degraded"] is True
        assert manifest["completed"] == ["gamess"]
        assert manifest["failed"][0]["workload"] == "povray"
        assert manifest["failed"][0]["exc_type"] == "WorkerCrash"

    def test_surviving_results_are_exact_under_degradation(self):
        cfg = config()
        plan = FaultPlan(chaos={"povray": ("crash",) * 8})
        result = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=2,
            retries=0, backoff_s=0.01, plan=plan,
        )
        ref = Runner(cfg).compare("gamess", "esteem")
        (comp,) = result.comparisons["esteem"]
        assert comp.result == ref.result


class TestCampaignTelemetry:
    def test_clean_sweep_merges_every_unit(self):
        result = resilient_sweep(
            config(), ["gamess", "povray"], ("esteem",), jobs=2
        )
        telem = result.telemetry
        assert sorted(telem["per_unit"]) == ["gamess", "povray"]
        assert telem["lost"] == []
        assert telem["rollup"]["units_merged"] == 2
        # Merged campaign counters are the exact sum of per-unit truths
        # (integer-valued counters never round under float addition).
        for name, total in telem["counters"].items():
            summed = sum(
                u["counters"].get(name, 0.0)
                for u in telem["per_unit"].values()
            )
            assert total == pytest.approx(summed, rel=1e-9)
        assert telem["counters"]["sim.runs"] == 4  # 2 units x (base + esteem)

    def test_per_technique_attribution_covers_baseline(self):
        result = resilient_sweep(config(), ["gamess"], ("esteem",), jobs=1)
        per = result.telemetry["per_technique"]
        assert set(per) == {"baseline", "esteem"}
        for entry in per.values():
            assert entry["wall_s"] > 0
            assert entry["counters"]["sim.runs"] == 1

    def test_timeline_records_wall_clock_per_attempt(self):
        result = resilient_sweep(
            config(), ["gamess", "povray"], ("esteem",), jobs=2
        )
        assert result.wall_s > 0
        assert len(result.timeline) == 2
        for entry in result.timeline:
            assert entry["outcome"] == "ok"
            assert entry["telemetry"] == "ok"
            assert 0 <= entry["start_s"] <= entry["end_s"] <= result.wall_s
            assert entry["wall_s"] == pytest.approx(
                entry["end_s"] - entry["start_s"], abs=1e-5
            )

    def test_retry_timeline_and_lost_telemetry_on_crash(self):
        plan = FaultPlan(chaos={"gamess": ("crash",)})
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.01, plan=plan,
        )
        outcomes = [
            (t["attempt"], t["outcome"], t["telemetry"])
            for t in result.timeline
        ]
        assert outcomes == [(1, "retry", "lost"), (2, "ok", "ok")]
        # Only the successful attempt feeds the campaign totals.
        assert result.telemetry["rollup"]["units_merged"] == 1
        assert result.telemetry["counters"]["sim.runs"] == 2

    def test_sigterm_flush_salvages_partial_telemetry_on_timeout(self):
        plan = FaultPlan(chaos={"gamess": ("hang",)}, hang_seconds=60.0)
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            timeout_s=2.0, retries=2, backoff_s=0.01, plan=plan,
        )
        first = result.timeline[0]
        assert first["outcome"] == "retry"
        assert first["exc_type"] == "TimeoutError"
        assert first["telemetry"] == "partial"

    def test_failed_workload_records_telemetry_status(self):
        plan = FaultPlan(chaos={"povray": ("crash",) * 8})
        result = resilient_sweep(
            config(), ["gamess", "povray"], ("esteem",), jobs=2,
            retries=0, backoff_s=0.01, plan=plan,
        )
        (failure,) = result.failed
        assert failure.telemetry == "lost"
        manifest = result.manifest()
        json.dumps(manifest)
        assert manifest["failed"][0]["telemetry"] == "lost"
        assert manifest["telemetry"]["rollup"]["units_merged"] == 1

    def test_cached_and_resumed_units_noted_without_attempts(self, tmp_path):
        cfg = config()
        ckpt = tmp_path / "sweep.ckpt.jsonl"
        resilient_sweep(cfg, ["gamess"], ("esteem",), jobs=1, checkpoint=ckpt)
        resumed = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1, checkpoint=ckpt, resume=True
        )
        (entry,) = resumed.timeline
        assert entry["outcome"] == "resumed"
        assert entry["telemetry"] == "none"
        assert resumed.telemetry["rollup"]["units_merged"] == 0

    def test_trace_events_ship_ring_tail_home(self):
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1, trace_events=256
        )
        unit = result.telemetry["per_unit"]["gamess"]
        assert unit["events_emitted"] > 0
        assert 0 < len(unit["events_tail"]) <= 32
        for event in unit["events_tail"]:
            assert "type" in event


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_bit_for_bit(self, tmp_path):
        cfg = config()
        ckpt = tmp_path / "sweep.ckpt.jsonl"
        # First pass: povray is permanently broken, gamess completes and
        # is checkpointed -- this is "the sweep died partway".
        plan = FaultPlan(chaos={"povray": ("crash",) * 8})
        first = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1,
            retries=0, backoff_s=0.01, checkpoint=ckpt, plan=plan,
        )
        assert first.completed == ["gamess"]
        # Second pass with the same parameters: gamess comes back from
        # the checkpoint without re-running; povray (still scripted to
        # crash) is attempted again.
        resumed = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1,
            retries=0, checkpoint=ckpt, resume=True, plan=plan,
        )
        assert resumed.resumed == ["gamess"]
        assert resumed.attempts == 1  # only povray re-ran
        ref = Runner(cfg).compare("gamess", "esteem")
        by_w = {c.workload: c for c in resumed.comparisons["esteem"]}
        assert by_w["gamess"].result == ref.result
        assert by_w["gamess"].baseline == ref.baseline

    def test_full_resume_runs_nothing(self, tmp_path):
        cfg = config()
        ckpt = tmp_path / "sweep.ckpt.jsonl"
        first = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1, checkpoint=ckpt
        )
        resumed = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1, checkpoint=ckpt, resume=True
        )
        assert resumed.attempts == 0
        assert resumed.resumed == ["gamess"]
        assert (
            resumed.comparisons["esteem"][0].result
            == first.comparisons["esteem"][0].result
        )

    def test_resume_refuses_foreign_checkpoint(self, tmp_path):
        cfg = config()
        ckpt = tmp_path / "sweep.ckpt.jsonl"
        resilient_sweep(cfg, ["gamess"], ("esteem",), jobs=1, checkpoint=ckpt)
        with pytest.raises(ValueError, match="different sweep"):
            resilient_sweep(
                cfg, ["gamess"], ("esteem",), jobs=1,
                checkpoint=ckpt, resume=True, seed=1,  # parameters changed
            )


class TestCheckpointFormat:
    def test_fingerprint_sensitivity(self):
        cfg = config()
        base = sweep_fingerprint(cfg, ("esteem",), 0)
        assert base == sweep_fingerprint(cfg, ("esteem",), 0)
        assert base != sweep_fingerprint(cfg, ("esteem", "rpv"), 0)
        assert base != sweep_fingerprint(cfg, ("esteem",), 1)
        assert base != sweep_fingerprint(
            cfg, ("esteem",), 0, FaultPlan(flip_rate=1e-4)
        )
        assert base != sweep_fingerprint(
            SimConfig.scaled(instructions_per_core=400_000), ("esteem",), 0
        )

    def test_missing_file_loads_empty(self, tmp_path):
        ckpt = SweepCheckpoint.load(tmp_path / "none.jsonl", "abc")
        assert ckpt.units == 0

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="not a sweep checkpoint"):
            SweepCheckpoint.load(path, "abc")

    def test_truncated_trailing_line_dropped_with_warning(
        self, tmp_path, capsys
    ):
        cfg = config()
        comp = Runner(cfg).compare("gamess", "esteem")
        fp = sweep_fingerprint(cfg, ("esteem",), 0)
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint(path, fp)
        ckpt.record([comp])
        # Simulate a torn write: append half a JSON record.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"workload": "povr')
        loaded = SweepCheckpoint.load(path, fp)
        assert loaded.units == 1
        assert "dropping unparsable checkpoint line" in capsys.readouterr().err

    def test_comparison_roundtrip_is_exact(self, tmp_path):
        cfg = config()
        comp = Runner(cfg).compare("gamess", "esteem")
        clone = comparison_from_dict(
            json.loads(json.dumps(comparison_to_dict(comp)))
        )
        assert clone == comp

    def test_has_workload_requires_every_technique(self, tmp_path):
        cfg = config()
        runner = Runner(cfg)
        comp = runner.compare("gamess", "esteem")
        ckpt = SweepCheckpoint(tmp_path / "c.jsonl", "fp")
        ckpt.record([comp])
        assert ckpt.has_workload("gamess", ("esteem",))
        assert not ckpt.has_workload("gamess", ("esteem", "rpv"))
        assert not ckpt.has_workload("povray", ("esteem",))


class TestHeartbeatSupervision:
    def test_stalled_heartbeat_detected_in_o_interval(self):
        # The worker's main thread sleeps for 60s with its heartbeat pump
        # suspended -- indistinguishable from a hung process.  With a
        # 0.25s heartbeat the parent must catch it in ~2 intervals, far
        # below the 30s unit timeout the legacy path would have waited.
        cfg = config()
        plan = FaultPlan(
            chaos={"gamess": ("stall-heartbeat",)}, hang_seconds=60.0
        )
        start = time.monotonic()
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            timeout_s=30.0, retries=2, backoff_s=0.01, plan=plan,
            heartbeat_s=0.25,
        )
        wall = time.monotonic() - start
        assert not result.degraded
        first = result.timeline[0]
        assert first["outcome"] == "retry"
        assert first["exc_type"] == "HeartbeatLost"
        assert result.supervision["hung_detected"] == 1
        assert result.supervision["heartbeats_received"] >= 1
        assert wall < 10.0, f"hung worker took {wall:.1f}s to detect"

    def test_slow_but_alive_worker_is_left_to_its_deadline(self):
        # A plain hang keeps the heartbeat pump beating: the supervisor
        # must NOT kill it early -- it runs to the unit timeout and is
        # classified TimeoutError, not HeartbeatLost.
        cfg = config()
        plan = FaultPlan(chaos={"gamess": ("hang",)}, hang_seconds=60.0)
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            timeout_s=2.0, retries=2, backoff_s=0.01, plan=plan,
            heartbeat_s=0.25,
        )
        assert not result.degraded
        first = result.timeline[0]
        assert first["exc_type"] == "TimeoutError"
        assert result.supervision["hung_detected"] == 0

    def test_heartbeats_off_by_default(self):
        result = resilient_sweep(config(), ["gamess"], ("esteem",), jobs=1)
        assert result.supervision["heartbeat_s"] is None
        assert result.supervision["heartbeats_received"] == 0

    def test_heartbeat_validation(self):
        with pytest.raises(ValueError):
            resilient_sweep(
                config(), ["gamess"], ("esteem",), heartbeat_s=0.0
            )


class TestQuarantine:
    def test_poison_unit_is_quarantined_not_retried_forever(self):
        # povray kills every worker it touches; after 2 distinct workers
        # die it is pulled from the queue with retry budget to spare,
        # and the healthy workload still completes.
        cfg = config()
        plan = FaultPlan(chaos={"povray": ("poison",) * 8})
        result = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1,
            retries=5, backoff_s=0.01, plan=plan, quarantine_after=2,
        )
        assert result.degraded
        assert result.completed == ["gamess"]
        assert not result.failed
        (q,) = result.quarantined
        assert q.workload == "povray"
        assert q.attempts == 2
        assert q.workers >= 2
        assert q.exc_type in LETHAL_EXC_TYPES
        manifest = result.manifest()
        json.dumps(manifest)
        assert manifest["quarantined"][0]["workload"] == "povray"
        assert manifest["quarantined"][0]["workers"] >= 2
        assert manifest["supervision"]["quarantine_after"] == 2

    def test_quarantine_disabled_by_default(self):
        # Without --quarantine-after the poison unit burns its retry
        # budget and lands in failed -- the pre-supervision behaviour.
        cfg = config()
        plan = FaultPlan(chaos={"gamess": ("poison",) * 8})
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.01, plan=plan,
        )
        assert result.failed and not result.quarantined

    def test_quarantine_persists_across_resume(self, tmp_path):
        cfg = config()
        ckpt = tmp_path / "sweep.ckpt.jsonl"
        plan = FaultPlan(chaos={"povray": ("poison",) * 8})
        first = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1,
            retries=5, backoff_s=0.01, plan=plan, quarantine_after=2,
            checkpoint=ckpt,
        )
        assert first.quarantined
        # The verdict is in the checkpoint: a resume must not spend a
        # single attempt re-proving that povray is poison.
        resumed = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1,
            retries=5, backoff_s=0.01, plan=plan, quarantine_after=2,
            checkpoint=ckpt, resume=True,
        )
        assert resumed.attempts == 0
        assert resumed.resumed == ["gamess"]
        (q,) = resumed.quarantined
        assert q.workload == "povray" and q.attempts == 0
        loaded = SweepCheckpoint.load(
            ckpt, sweep_fingerprint(cfg, ("esteem",), 0, plan)
        )
        assert loaded.quarantined_workloads == {"povray"}


class TestDeadlineBudgets:
    def test_expired_budget_skips_fairly(self):
        cfg = config()
        result = resilient_sweep(
            cfg, ["gamess", "povray", "mcf"], ("esteem",), jobs=1,
            deadline_s=0.001,
        )
        assert result.degraded
        assert not result.failed
        assert sorted(s.workload for s in result.skipped) == [
            "gamess", "mcf", "povray"
        ]
        assert all(s.reason == "deadline" for s in result.skipped)
        for entry in result.timeline:
            assert entry["outcome"] == "skipped-deadline"
        manifest = result.manifest()
        json.dumps(manifest)
        assert manifest["supervision"]["deadline_s"] == 0.001
        assert {s["reason"] for s in manifest["skipped"]} == {"deadline"}

    def test_deadline_skips_resume_to_completion(self, tmp_path):
        cfg = config()
        ckpt = tmp_path / "sweep.ckpt.jsonl"
        first = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1,
            deadline_s=0.001, checkpoint=ckpt,
        )
        assert len(first.skipped) == 2
        loaded = SweepCheckpoint.load(
            ckpt, sweep_fingerprint(cfg, ("esteem",), 0)
        )
        assert loaded.workloads_with_event("skipped-deadline") == {
            "gamess", "povray"
        }
        # Resume without the budget: the skipped units run and the
        # results match an undisturbed reference bit for bit.
        resumed = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1,
            checkpoint=ckpt, resume=True,
        )
        assert not resumed.degraded
        assert sorted(resumed.completed) == ["gamess", "povray"]
        ref = Runner(cfg).compare("gamess", "esteem")
        by_w = {c.workload: c for c in resumed.comparisons["esteem"]}
        assert by_w["gamess"].result == ref.result

    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            resilient_sweep(
                config(), ["gamess"], ("esteem",), deadline_s=0.0
            )


class TestHardCrashContainment:
    @pytest.mark.parametrize("use_pool", [True, False], ids=["pool", "spawn"])
    def test_sigkill_contained_recycled_no_leaks(self, use_pool):
        # SIGKILL gives the worker no chance to flush anything: the
        # parent must see a mute death (telemetry lost), recycle the
        # worker, retry to success, and leave no process or shared
        # memory behind.
        cfg = config()
        plan = FaultPlan(chaos={"gamess": ("kill",)})
        children_before = set(multiprocessing.active_children())
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.01, plan=plan, use_pool=use_pool,
        )
        assert not result.degraded
        first = result.timeline[0]
        assert first["outcome"] == "retry"
        assert first["exc_type"] == "WorkerCrash"
        assert first["telemetry"] == "lost"
        assert result.workers_recycled >= 1
        ref = Runner(cfg).compare("gamess", "esteem")
        assert result.comparisons["esteem"][0].result == ref.result
        leaked = set(multiprocessing.active_children()) - children_before
        assert not leaked, f"leaked worker processes: {leaked}"
        assert active_shm_segments() == []


class TestCheckpointEvents:
    def test_event_roundtrip_and_idempotence(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint(path, "fp")
        ckpt.note_event("quarantined", "povray", detail="WorkerCrash x2")
        ckpt.note_event("quarantined", "povray", detail="duplicate")
        ckpt.note_event("skipped-deadline", "mcf")
        loaded = SweepCheckpoint.load(path, "fp")
        assert loaded.quarantined_workloads == {"povray"}
        assert loaded.workloads_with_event("skipped-deadline") == {"mcf"}
        assert len(loaded.events) == 2  # idempotent per (event, workload)
        assert loaded.events[0]["detail"] == "WorkerCrash x2"

    def test_corrupt_event_line_dropped(self, tmp_path, capsys):
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint(path, "fp")
        ckpt.note_event("quarantined", "povray")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "quarantined", "workload"\n')  # torn write
            fh.write("\x00\x01 binary junk\n")
        loaded = SweepCheckpoint.load(path, "fp")
        assert loaded.quarantined_workloads == {"povray"}
        assert "dropping unparsable" in capsys.readouterr().err

    def test_events_interleave_with_comparisons(self, tmp_path):
        cfg = config()
        comp = Runner(cfg).compare("gamess", "esteem")
        fp = sweep_fingerprint(cfg, ("esteem",), 0)
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint(path, fp)
        ckpt.record([comp])
        ckpt.note_event("skipped-interrupt", "povray")
        loaded = SweepCheckpoint.load(path, fp)
        assert loaded.units == 1
        assert loaded.has_workload("gamess", ("esteem",))
        assert loaded.workloads_with_event("skipped-interrupt") == {"povray"}
