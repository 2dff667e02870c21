"""Warm worker pool engine: reuse, recycling, and shm segment lifecycle."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.config import SimConfig
from repro.experiments import _trace_cache
from repro.experiments import pool as poolmod
from repro.experiments.parallel import resilient_sweep
from repro.experiments.runner import Runner
from repro.faults import FaultPlan

CFG_KW = dict(instructions_per_core=200_000, interval_cycles=100_000)


def config():
    return SimConfig.scaled(**CFG_KW)


def segment_files(names):
    """The subset of segment names still present under /dev/shm."""
    return sorted(
        n for n in names if os.path.exists(os.path.join("/dev/shm", n))
    )


def new_segments(before):
    return set(poolmod.created_shm_segments()) - before


class TestWarmReuse:
    def test_one_worker_serves_every_unit(self):
        result = resilient_sweep(
            config(), ["gamess", "povray", "h264ref"], ("esteem", "rpv"),
            jobs=1,
        )
        assert not result.degraded
        assert result.attempts == 3
        # The amortisation claim itself: 3 units, ONE process.
        assert result.workers_spawned == 1
        assert result.workers_recycled == 0

    def test_pool_is_bit_for_bit_identical_to_sequential(self):
        cfg = config()
        result = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem", "rpv"), jobs=2
        )
        runner = Runner(cfg)
        for technique in ("esteem", "rpv"):
            for comp in result.comparisons[technique]:
                ref = runner.compare(comp.workload, technique)
                assert comp.result == ref.result
                assert comp.baseline == ref.baseline

    def test_pool_with_hardware_faults_is_bit_for_bit(self):
        # Plane-1 injection must be independent of which (warm or fresh)
        # worker runs the unit.
        cfg = config()
        plan = FaultPlan(flip_rate=2e-4, seed=11)
        result = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1, plan=plan
        )
        runner = Runner(cfg, fault_plan=plan)
        for comp in result.comparisons["esteem"]:
            ref = runner.compare(comp.workload, "esteem")
            assert comp.result == ref.result


class TestRecycling:
    def test_crash_recycles_exactly_one_worker(self):
        plan = FaultPlan(chaos={"gamess": ("crash",)})
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            retries=2, plan=plan,
        )
        assert not result.degraded
        assert result.retries == 1
        assert result.workers_recycled == 1
        assert result.workers_spawned == 2  # original + replacement

    def test_hang_recycles_exactly_one_worker(self):
        plan = FaultPlan(chaos={"gamess": ("hang",)}, hang_seconds=60.0)
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            timeout_s=2.0, retries=2, plan=plan,
        )
        assert not result.degraded
        assert result.retries == 1
        assert result.workers_recycled == 1
        assert result.workers_spawned == 2

    def test_unit_error_keeps_the_worker_warm(self):
        # A deterministic in-unit failure is not an infrastructure death:
        # the same worker must carry on serving the remaining units.
        plan = FaultPlan(chaos={"povray": ("raise", "raise", "raise")})
        result = resilient_sweep(
            config(), ["gamess", "povray", "h264ref"], ("esteem",),
            jobs=1, retries=2, plan=plan,
        )
        assert result.degraded
        assert [f.workload for f in result.failed] == ["povray"]
        assert result.workers_spawned == 1
        assert result.workers_recycled == 0
        assert sorted(result.completed) == ["gamess", "h264ref"]


class TestShmLifecycle:
    def test_clean_sweep_unlinks_every_segment(self):
        before = set(poolmod.created_shm_segments())
        resilient_sweep(config(), ["gamess", "povray"], ("esteem",), jobs=2)
        fresh = new_segments(before)
        assert fresh, "pooled sweep must ship traces via shared memory"
        assert poolmod.active_shm_segments() == []
        assert segment_files(fresh) == []

    def test_worker_crash_mid_unit_leaks_nothing(self):
        before = set(poolmod.created_shm_segments())
        plan = FaultPlan(chaos={"gamess": ("crash",)})
        resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            retries=2, plan=plan,
        )
        fresh = new_segments(before)
        assert fresh
        assert poolmod.active_shm_segments() == []
        assert segment_files(fresh) == []

    def test_hang_triggered_recycle_leaks_nothing(self):
        before = set(poolmod.created_shm_segments())
        plan = FaultPlan(chaos={"gamess": ("hang",)}, hang_seconds=60.0)
        resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            timeout_s=2.0, retries=2, plan=plan,
        )
        fresh = new_segments(before)
        assert fresh
        assert poolmod.active_shm_segments() == []
        assert segment_files(fresh) == []

    def test_abandoned_unit_leaks_nothing(self):
        before = set(poolmod.created_shm_segments())
        plan = FaultPlan(chaos={"gamess": ("crash",) * 8})
        result = resilient_sweep(
            config(), ["gamess"], ("esteem",), jobs=1,
            retries=1, plan=plan,
        )
        assert result.degraded
        assert poolmod.active_shm_segments() == []
        assert segment_files(new_segments(before)) == []

    @pytest.mark.skipif(
        sys.version_info >= (3, 13),
        reason="track=False keeps attachments out of the resource tracker",
    )
    def test_worker_forked_before_any_export_shares_the_tracker(
        self, repro_env
    ):
        # The first unit cannot be resolved, so its worker forks before
        # the parent has exported anything.  Had that worker started a
        # resource tracker of its own on its first attach, the tracker
        # would unlink the parent's segments when the worker exits and
        # warn about them on stderr.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep",
             "--workloads", "nosuch,gamess", "-t", "esteem",
             "--instructions", "200000", "--jobs", "1", "--retries", "0",
             "--no-cache", "-q"],
            env=repro_env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert "nosuch: [KeyError]" in proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr


class TestLazyPreparation:
    """A unit's traces are generated and exported at its first dispatch."""

    def test_dispatch_interleaves_with_generation(self, monkeypatch):
        parent = os.getpid()
        events = []
        real_get_trace = _trace_cache.get_trace
        real_start = poolmod.WorkerPool.start

        def get_trace(profile, *args, **kwargs):
            if os.getpid() == parent:  # forked workers inherit the patch
                events.append(("trace", profile.name))
            return real_get_trace(profile, *args, **kwargs)

        def start(self, task, attempt):
            # Only the unit being started is running (jobs=1): the shm
            # footprint is exactly its own traces.
            shipped = {handle.segment for handle in task[4].values()}
            assert shipped
            assert set(poolmod.active_shm_segments()) == shipped
            events.append(("start", task[1]))
            return real_start(self, task, attempt)

        monkeypatch.setattr(_trace_cache, "get_trace", get_trace)
        monkeypatch.setattr(poolmod.WorkerPool, "start", start)
        result = resilient_sweep(
            config(), ["gamess", "povray", "h264ref"], ("esteem",), jobs=1
        )
        assert not result.degraded
        assert [kind for kind, _ in events] == ["trace", "start"] * 3
        assert [w for kind, w in events if kind == "start"] == [
            "gamess", "povray", "h264ref"
        ]
        assert poolmod.active_shm_segments() == []

    def test_preparation_is_not_charged_to_the_timeout(self, monkeypatch):
        parent = os.getpid()
        real_get_trace = _trace_cache.get_trace

        def slow_get_trace(*args, **kwargs):
            if os.getpid() == parent:
                time.sleep(1.5)
            return real_get_trace(*args, **kwargs)

        monkeypatch.setattr(_trace_cache, "get_trace", slow_get_trace)
        result = resilient_sweep(
            SimConfig.scaled(
                instructions_per_core=50_000, interval_cycles=100_000
            ),
            ["gamess"], ("esteem",), jobs=1,
            timeout_s=1.0, retries=2,
        )
        assert not result.degraded
        assert result.attempts == 1 and result.retries == 0
        assert [e["outcome"] for e in result.timeline] == ["ok"]


class TestSimulatorImport:
    """A sweep imports the simulator only for a unit that must run, and
    then in the parent before the pool forks, so workers start warm."""

    SCRIPT = """\
import json, sys
from repro.config import SimConfig
from repro.experiments import pool
from repro.experiments.parallel import resilient_sweep

STACK = ("repro.timing.system", "repro.workloads.synthetic")
before = [m for m in STACK if m in sys.modules]
at_fork = []
real_spawn = pool.WorkerPool._spawn

def spawn(self):
    at_fork.append([m for m in STACK if m in sys.modules])
    return real_spawn(self)

pool.WorkerPool._spawn = spawn
result = resilient_sweep(
    SimConfig.scaled(instructions_per_core=50_000), ["gamess"], ("esteem",),
    jobs=1,
)
print(json.dumps({
    "before": before, "at_fork": at_fork, "attempts": result.attempts,
}))
"""

    def test_stack_is_loaded_before_the_first_fork(self, repro_env):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=repro_env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen["attempts"] == 1
        assert seen["before"] == []
        assert seen["at_fork"] == [
            ["repro.timing.system", "repro.workloads.synthetic"]
        ]


class TestSharedTraceStore:
    def test_refcounted_unlink(self):
        from repro.workloads.profiles import get_profile
        from repro.workloads.synthetic import generate_trace

        trace = generate_trace(get_profile("gamess"), 50_000, seed=0)
        store = poolmod.SharedTraceStore()
        handle_a = store.acquire("k", trace)
        handle_b = store.acquire("k", trace)
        assert handle_a is handle_b  # one segment, two references
        assert handle_a.segment in poolmod.active_shm_segments()
        store.release("k")
        assert handle_a.segment in poolmod.active_shm_segments()
        store.release("k")
        assert handle_a.segment not in poolmod.active_shm_segments()
        assert segment_files([handle_a.segment]) == []

    def test_close_unlinks_regardless_of_refcount(self):
        from repro.workloads.profiles import get_profile
        from repro.workloads.synthetic import generate_trace

        trace = generate_trace(get_profile("gamess"), 50_000, seed=0)
        store = poolmod.SharedTraceStore()
        handle = store.acquire("k", trace)
        store.acquire("k", trace)
        store.close()
        assert handle.segment not in poolmod.active_shm_segments()
        assert len(store) == 0
        store.release("k")  # releasing after close is a no-op
