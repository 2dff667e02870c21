"""Resilience benchmark: the sweep harness vs scripted chaos.

Drives both planes of the fault subsystem through one scenario:

* ``gamess`` crashes hard on its first attempt (worker dies without a
  traceback) and must recover via retry;
* ``h264ref`` hangs on its first attempt, trips the wall-clock timeout,
  is terminated, and must recover via retry;
* ``libquantum`` crashes on *every* attempt and must land in the
  degraded-result manifest instead of aborting the sweep;
* every run also carries a Plane-1 hardware-fault plan, so the surviving
  results must additionally match a clean sequential run under the same
  injected eDRAM faults -- bit for bit;
* finally the sweep is resumed from its checkpoint and must come back
  instantly (zero new attempts) with identical results.

A further scenario exercises the supervision layer end to end:

* ``run_interrupt_scenario`` -- a real ``repro sweep`` child process is
  SIGTERMed mid-campaign, must exit with the distinct interrupt code
  (4) after flushing checkpoint + partial manifest, and ``--resume``
  must finish the campaign with aggregates bit-for-bit identical to an
  uninterrupted run.

Runs standalone (``python benchmarks/bench_fault_resilience.py``, exit 0
on success) for the CI chaos-smoke job, or under pytest-benchmark like
the other benches.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

import repro
from repro.config import SimConfig
from repro.experiments.checkpoint import SweepCheckpoint, sweep_fingerprint
from repro.experiments.parallel import resilient_sweep
from repro.experiments.report import validate_manifest
from repro.experiments.runner import Runner
from repro.faults import FaultEvent, FaultPlan
from repro.obs import Tracer
from repro.obs.trace import EVENT_FAULT_INJECT

WORKLOADS = ["gamess", "h264ref", "libquantum"]
TECHNIQUES = ("esteem",)
SEED = 0

#: Small fixed scale: the scenario tests the harness, not the simulator;
#: the whole bench (several sweeps + a traced run) must stay under the CI
#: job's 2-minute budget.
INSTRUCTIONS = 200_000
INTERVAL = 100_000

PLAN = FaultPlan(
    seed=11,
    flip_rate=2e-4,
    events=(FaultEvent(set_index=5, way=2, cycle=150_000, bits=2),),
    chaos={
        "gamess": ("crash",),          # dies once, recovers on retry
        "h264ref": ("hang",),          # hangs once, recovers after timeout
        "libquantum": ("crash",) * 8,  # permanently broken -> degraded
    },
    hang_seconds=30.0,
)

#: The same plan with Plane 2 stripped: the reference for what the
#: surviving workloads' results must be.
CLEAN_PLAN = FaultPlan.from_dict(
    {k: v for k, v in PLAN.as_dict().items() if k != "chaos"}
)


def _config() -> SimConfig:
    return SimConfig.scaled(
        instructions_per_core=INSTRUCTIONS
    ).with_esteem(interval_cycles=INTERVAL)


def run_scenario() -> dict:
    config = _config()

    with tempfile.TemporaryDirectory() as tmp:
        ckpt_path = os.path.join(tmp, "sweep.ckpt.jsonl")

        chaos_result = resilient_sweep(
            config,
            WORKLOADS,
            TECHNIQUES,
            seed=SEED,
            jobs=2,
            timeout_s=5.0,
            retries=2,
            backoff_s=0.1,
            checkpoint=ckpt_path,
            plan=PLAN,
        )

        # Degradation contract: the permanently-broken workload is in the
        # manifest, the other two completed, nothing raised.
        assert chaos_result.degraded, "permanent crasher must degrade the sweep"
        assert [f.workload for f in chaos_result.failed] == ["libquantum"]
        assert chaos_result.failed[0].attempts == 3, "1 attempt + 2 retries"
        assert chaos_result.failed[0].exc_type == "WorkerCrash"
        assert sorted(chaos_result.completed) == ["gamess", "h264ref"]
        assert chaos_result.retries >= 2, "crash and hang must each retry"

        # Telemetry survival (ISSUE 6): successful units ship full
        # snapshots, the timed-out attempt salvages a partial one over
        # the SIGTERM flush, and the hard crash is recorded as lost --
        # never silently absent from the manifest.
        telem = chaos_result.telemetry
        assert sorted(telem["per_unit"]) == ["gamess", "h264ref"]
        assert telem["counters"]["sim.instructions"] > 0
        assert telem["rollup"]["units_merged"] == 2
        by_attempt = {
            (t["workload"], t["attempt"]): t for t in chaos_result.timeline
        }
        assert by_attempt[("gamess", 1)]["telemetry"] == "lost", (
            "a worker that dies via os._exit cannot flush telemetry"
        )
        assert by_attempt[("gamess", 2)]["telemetry"] == "ok"
        hang_first = by_attempt[("h264ref", 1)]
        assert hang_first["exc_type"] == "TimeoutError"
        assert hang_first["telemetry"] == "partial", (
            "the terminated worker's SIGTERM flush must salvage a "
            "partial snapshot"
        )
        assert by_attempt[("h264ref", 2)]["telemetry"] == "ok"
        assert chaos_result.failed[0].telemetry == "lost"

        # Survivors must be bit-for-bit identical to a clean sequential
        # run under the same Plane-1 hardware faults.
        clean = Runner(config, seed=SEED, fault_plan=CLEAN_PLAN)
        for comp in chaos_result.comparisons["esteem"]:
            ref = clean.compare(comp.workload, comp.technique)
            assert comp.result == ref.result, comp.workload
            assert comp.baseline == ref.baseline, comp.workload

        # Hardware faults actually fired in the surviving runs.
        by_workload = {
            c.workload: c for c in chaos_result.comparisons["esteem"]
        }
        assert any(
            c.result.faults_injected > 0 for c in by_workload.values()
        ), "the Plane-1 plan must inject at least one fault"

        # Resume: everything completed comes back from the checkpoint
        # with zero new attempts; the failed workload is retried (and,
        # still scripted to crash, fails again).
        resumed = resilient_sweep(
            config,
            WORKLOADS,
            TECHNIQUES,
            seed=SEED,
            jobs=2,
            timeout_s=5.0,
            retries=0,
            backoff_s=0.1,
            checkpoint=ckpt_path,
            resume=True,
            plan=PLAN,
        )
        assert sorted(resumed.resumed) == ["gamess", "h264ref"]
        assert resumed.attempts == 1, "only the failed workload re-runs"
        for comp in resumed.comparisons["esteem"]:
            ref = by_workload[comp.workload]
            assert comp.result == ref.result, "resume must be bit-for-bit"

        # The checkpoint file itself round-trips exactly.
        fp = sweep_fingerprint(config, TECHNIQUES, SEED, PLAN)
        ckpt = SweepCheckpoint.load(ckpt_path, fp)
        assert ckpt.units == 2

    # Plane-1 visibility: a traced run under the plan emits fault.inject.
    tracer = Tracer()
    traced = Runner(config, seed=SEED, tracer=tracer, fault_plan=CLEAN_PLAN)
    traced.run("gamess", "esteem")
    n_fault_events = tracer.tally().get(EVENT_FAULT_INJECT, 0)
    assert n_fault_events > 0, "injected faults must be trace-visible"

    return {
        "attempts": chaos_result.attempts,
        "retries": chaos_result.retries,
        "failed": [f.workload for f in chaos_result.failed],
        "resumed": sorted(resumed.resumed),
        "fault_events": n_fault_events,
        "telemetry_units": sorted(chaos_result.telemetry["per_unit"]),
        "salvaged_partial": hang_first["telemetry"],
    }


#: Interrupt scenario: a real CLI campaign, SIGTERMed mid-run.  The last
#: unit is scripted to hang (first attempt only) far past the unit
#: timeout, giving the signal a deterministic mid-campaign window to
#: land in; resumed and fresh runs hit the same hang, time out once, and
#: recover on retry.
INTERRUPT_WORKLOADS = "gamess,povray,mcf,milc"
INTERRUPT_PLAN = FaultPlan(chaos={"milc": ("hang",)}, hang_seconds=60.0)


def _sweep_cmd(
    ckpt: str, manifest: str, plan: str, resume: bool = False
) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro", "sweep",
        "--workloads", INTERRUPT_WORKLOADS, "-t", "esteem",
        "--instructions", str(INSTRUCTIONS), "--jobs", "1",
        "--timeout", "5", "--retries", "2", "--backoff", "0.1",
        "--inject", plan, "--no-cache",
        "--checkpoint", ckpt, "--manifest", manifest, "-q",
    ]
    if resume:
        cmd.append("--resume")
    return cmd


def run_interrupt_scenario() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    shm_before = (
        set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    )

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "sweep.ckpt.jsonl")
        manifest_path = os.path.join(tmp, "manifest.json")
        plan_path = os.path.join(tmp, "plan.json")
        INTERRUPT_PLAN.save(plan_path)

        proc = subprocess.Popen(
            _sweep_cmd(ckpt, manifest_path, plan_path), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        # Wait until at least one unit is checkpointed (header + 1 line),
        # then interrupt the campaign parent.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError(
                    f"sweep exited rc={proc.returncode} before it could be "
                    f"interrupted:\n{proc.stderr.read()}"
                )
            try:
                with open(ckpt, encoding="utf-8") as fh:
                    if sum(1 for _ in fh) >= 2:
                        break
            except FileNotFoundError:
                pass
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        stderr = proc.communicate(timeout=60.0)[1]
        assert proc.returncode == 4, (
            f"interrupted sweep must exit 4, got {proc.returncode}:\n{stderr}"
        )
        assert "INTERRUPTED" in stderr

        # The flush-on-signal contract: manifest written, schema-valid,
        # interrupt recorded, unfinished units skipped -- never dropped.
        interrupted = json.loads(open(manifest_path).read())
        assert validate_manifest(interrupted) == []
        assert interrupted["interrupted"] == "SIGTERM"
        assert interrupted["skipped"], "unfinished units must be recorded"
        n_workloads = len(INTERRUPT_WORKLOADS.split(","))
        accounted = (
            len(interrupted["completed"]) + len(interrupted["skipped"])
        )
        assert accounted == n_workloads, "every unit must be accounted for"

        # Resume finishes the campaign cleanly...
        rc = subprocess.run(
            _sweep_cmd(ckpt, manifest_path, plan_path, resume=True),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        assert rc == 0, f"resumed sweep must exit 0, got {rc}"
        resumed = json.loads(open(manifest_path).read())
        assert sorted(resumed["completed"]) == sorted(
            INTERRUPT_WORKLOADS.split(",")
        )
        assert sorted(resumed["resumed"]) == sorted(
            interrupted["completed"]
        ), "resume must reuse exactly the units that survived the signal"

        # ...and bit-for-bit: aggregates equal an uninterrupted run.
        fresh_manifest = os.path.join(tmp, "fresh.json")
        rc = subprocess.run(
            _sweep_cmd(
                os.path.join(tmp, "fresh.ckpt.jsonl"), fresh_manifest,
                plan_path,
            ),
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        assert rc == 0
        fresh = json.loads(open(fresh_manifest).read())
        assert resumed["aggregates"] == fresh["aggregates"], (
            "resumed campaign must equal an uninterrupted run bit-for-bit"
        )

    if os.path.isdir("/dev/shm"):
        leaked = set(os.listdir("/dev/shm")) - shm_before
        assert not leaked, f"leaked shared-memory segments: {leaked}"

    return {
        "interrupt_rc": 4,
        "skipped_on_interrupt": sorted(
            s["workload"] for s in interrupted["skipped"]
        ),
        "resumed_ok": True,
        "aggregates_bit_for_bit": True,
    }


def run_all_scenarios() -> dict:
    summary = run_scenario()
    summary.update(run_interrupt_scenario())
    return summary


def bench_fault_resilience(run_once):
    summary = run_once(run_all_scenarios)
    from conftest import emit

    emit(
        "fault_resilience",
        "\n".join(f"{k}: {v}" for k, v in sorted(summary.items())),
    )


def main() -> int:
    summary = run_all_scenarios()
    print("chaos scenario survived degraded-but-correct:")
    for k, v in sorted(summary.items()):
        print(f"  {k}: {v}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
