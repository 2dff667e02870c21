"""Tests for the resilient sweep harness (Plane 2: timeouts, retries,
checkpoint/resume, degradation) and the sweep checkpoint format."""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.config import SimConfig
from repro.experiments.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.experiments.parallel import (
    TRANSIENT_EXC_TYPES,
    ParallelWorkerError,
    resilient_sweep,
)
from repro.experiments.pool import active_shm_segments
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

    @pytest.mark.parametrize(
        "bad", [{"backoff_s": -1.0}], ids=["backoff_s"],
    )
    def test_negative_knobs_rejected_before_any_worker(
        self, bad, monkeypatch
    ):
        # A negative knob is refused before an executor, or any worker,
        # exists.
        from repro.experiments import pool

        def no_executor(*args, **kwargs):
            raise AssertionError("an executor was built")

        monkeypatch.setattr(pool, "WorkerPool", no_executor)
        with pytest.raises(ValueError):
            resilient_sweep(config(), ["gamess"], ("esteem",), **bad)


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

    def test_backoff_doubles_per_attempt(self):
        # Retry n waits backoff_s * 2**(n-1) after the failure it follows.
        plan = FaultPlan(chaos={"gamess": ("crash", "crash")})
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.2, plan=plan,
        )
        assert not result.degraded
        first, second, third = result.timeline
        assert (first["outcome"], second["outcome"]) == ("retry", "retry")
        assert second["start_s"] - first["end_s"] >= 0.2 - 0.01
        assert third["start_s"] - second["end_s"] >= 0.4 - 0.01

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
            # One warm-L2 image per construction: built, or a hit on an
            # image the worker already holds (it may inherit some).
            assert entry["counters"].get("l2_image.builds", 0) + entry[
                "counters"
            ].get("l2_image.hits", 0) == 1

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


class TestHardCrashContainment:
    def test_sigkill_contained_recycled_no_leaks(self):
        # SIGKILL gives the worker no chance to flush anything: the
        # parent must see a mute death (telemetry lost), recycle the
        # worker, retry to success, and leave no process or shared
        # memory behind.
        cfg = config()
        plan = FaultPlan(chaos={"gamess": ("kill",)})
        children_before = set(multiprocessing.active_children())
        result = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1,
            retries=2, backoff_s=0.01, plan=plan,
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
        ckpt.note_event("skipped-interrupt", "povray", detail="first")
        ckpt.note_event("skipped-interrupt", "povray", detail="duplicate")
        ckpt.note_event("skipped-deadline", "mcf")
        loaded = SweepCheckpoint.load(path, "fp")
        assert loaded.workloads_with_event("skipped-interrupt") == {"povray"}
        assert loaded.workloads_with_event("skipped-deadline") == {"mcf"}
        assert len(loaded.events) == 2  # idempotent per (event, workload)
        assert loaded.events[0]["detail"] == "first"

    def test_corrupt_event_line_dropped(self, tmp_path, capsys):
        path = tmp_path / "ckpt.jsonl"
        ckpt = SweepCheckpoint(path, "fp")
        ckpt.note_event("skipped-deadline", "povray")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "skipped-deadline", "workload"\n')  # torn
            fh.write("\x00\x01 binary junk\n")
        loaded = SweepCheckpoint.load(path, "fp")
        assert loaded.workloads_with_event("skipped-deadline") == {"povray"}
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

    def test_old_deadline_skips_still_resume(self, tmp_path):
        # Checkpoints written before the campaign deadline was retired
        # carry skipped-deadline lines: they still resume, and the lines
        # are kept but ignored.
        cfg = config()
        fp = sweep_fingerprint(cfg, ("esteem",), 0)
        path = tmp_path / "ckpt.jsonl"
        old = SweepCheckpoint(path, fp)
        old.record([Runner(cfg).compare("gamess", "esteem")])
        old.note_event("skipped-deadline", "povray")
        resumed = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1,
            checkpoint=path, resume=True,
        )
        assert not resumed.degraded
        assert resumed.resumed == ["gamess"]
        assert resumed.completed == ["gamess", "povray"]
        loaded = SweepCheckpoint.load(path, fp)
        assert loaded.workloads_with_event("skipped-deadline") == {"povray"}
        assert loaded.has_workload("povray", ("esteem",))


class TestGroupSignal:
    """A signal sent to the sweep's whole process group -- what
    ``timeout`` and ``kill -TERM -PGID`` do, and what Ctrl-C does --
    also reaches the pool workers.  The unit in flight is cancelled as
    ``skipped-interrupt``, never failed, and ``--resume`` finishes it."""

    WORKLOADS = "gamess,milc"
    # milc's first attempt hangs: it is in flight when the signal lands.
    PLAN = FaultPlan(chaos={"milc": ("hang",)}, hang_seconds=60.0)

    def _cmd(self, tmp, tag, *extra):
        return [
            sys.executable, "-m", "repro", "sweep",
            "--workloads", self.WORKLOADS, "-t", "esteem",
            "--instructions", "200000", "--jobs", "1", "--no-cache",
            "--inject", str(tmp / "plan.json"),
            "--checkpoint", str(tmp / f"{tag}.ckpt.jsonl"),
            "--manifest", str(tmp / f"{tag}.json"), "-q", *extra,
        ]

    @pytest.fixture(scope="class")
    def tmp(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("group-signal")
        self.PLAN.save(tmp / "plan.json")
        return tmp

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp, repro_env):
        # --timeout is not part of the sweep fingerprint: it cuts the
        # scripted hang short here and on resume, never in the
        # interrupted run.
        rc = subprocess.run(
            self._cmd(tmp, "fresh", "--timeout", "1"), env=repro_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        assert rc == 0
        return json.loads((tmp / "fresh.json").read_text())

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_in_flight_unit_is_skipped_not_failed(
        self, sig, tmp, repro_env, uninterrupted
    ):
        tag = sig.name
        ckpt = tmp / f"{tag}.ckpt.jsonl"
        proc = subprocess.Popen(
            self._cmd(tmp, tag), env=repro_env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        try:
            # gamess is checkpointed (header + one line), then milc is
            # dispatched and hangs.
            give_up = time.monotonic() + 120.0
            while not (
                ckpt.exists() and len(ckpt.read_text().splitlines()) >= 2
            ):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < give_up, "gamess never finished"
                time.sleep(0.05)
            time.sleep(1.0)
            os.killpg(proc.pid, sig)
            stderr = proc.communicate(timeout=60.0)[1]
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == 4, stderr
        assert "DEGRADED" not in stderr
        manifest = json.loads((tmp / f"{tag}.json").read_text())
        assert manifest["interrupted"] == tag
        assert manifest["failed"] == []
        assert manifest["completed"] == ["gamess"]
        assert [s["workload"] for s in manifest["skipped"]] == ["milc"]
        (record,) = [
            t for t in manifest["timeline"] if t["workload"] == "milc"
        ]
        assert record["outcome"] == "skipped-interrupt"
        assert record["in_flight"] is True

        rc = subprocess.run(
            self._cmd(tmp, tag, "--timeout", "1", "--resume"), env=repro_env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        assert rc == 0
        resumed = json.loads((tmp / f"{tag}.json").read_text())
        assert resumed["resumed"] == ["gamess"]
        assert resumed["aggregates"] == uninterrupted["aggregates"]
