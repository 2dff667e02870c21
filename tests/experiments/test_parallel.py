"""Tests for process-parallel experiment execution."""

import io

import numpy as np
import pytest

from repro.config import SimConfig
from repro.experiments.parallel import ParallelWorkerError, resilient_sweep
from repro.experiments.runner import Runner
from repro.obs import ProgressReporter

WORKLOADS = ["gamess", "povray", "hmmer"]
CFG_KW = dict(instructions_per_core=400_000)


class TestParallelCompare:
    """Comparisons run in parallel by :func:`resilient_sweep` match the
    sequential :class:`Runner`."""

    def test_matches_sequential_exactly(self):
        config = SimConfig.scaled(**CFG_KW)
        parallel = resilient_sweep(config, WORKLOADS, ("esteem",), jobs=2)
        runner = Runner(config)
        sequential = runner.compare_many(WORKLOADS, "esteem")
        assert parallel.comparisons["esteem"] == sequential

    def test_multiple_techniques_share_workload_order(self):
        config = SimConfig.scaled(**CFG_KW)
        out = resilient_sweep(config, WORKLOADS, ("esteem", "rpv"), jobs=2)
        assert [c.workload for c in out.comparisons["esteem"]] == WORKLOADS
        assert [c.workload for c in out.comparisons["rpv"]] == WORKLOADS

    def test_jobs_one_runs_inline(self):
        config = SimConfig.scaled(**CFG_KW)
        out = resilient_sweep(config, ["gamess"], ("esteem",), jobs=1)
        assert len(out.comparisons["esteem"]) == 1
        assert out.workers_spawned == 1

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            resilient_sweep(SimConfig.scaled(**CFG_KW), [], ("esteem",))

    def test_empty_techniques_rejected(self):
        with pytest.raises(ValueError):
            resilient_sweep(SimConfig.scaled(**CFG_KW), ["gamess"], ())

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            resilient_sweep(
                SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=0
            )

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            resilient_sweep(
                SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=-4
            )


class TestTracePreloading:
    """Parent-generated traces ride to workers instead of being rebuilt."""

    @staticmethod
    def _ship_gamess(store):
        """Generate gamess's trace and export it: ``(config, key, profile,
        trace, handle)``."""
        from repro.experiments import _trace_cache
        from repro.experiments.parallel import _trace_needs_for

        config = SimConfig.scaled(**CFG_KW)
        needs = _trace_needs_for(config, "gamess", 0)
        assert [p.name for _, p in needs] == ["gamess"]
        (key, profile), = needs
        trace = _trace_cache.get_trace(profile, key[1], key[2])
        return config, key, profile, trace, store.acquire(key, trace)

    def test_worker_task_uses_preloaded_trace(self, monkeypatch):
        from repro.experiments import _trace_cache
        from repro.experiments.parallel import _workload_task
        from repro.experiments.pool import SharedTraceStore

        store = SharedTraceStore()
        try:
            config, key, profile, trace, handle = self._ship_gamess(store)
            _trace_cache.clear()

            def no_generation(*args, **kwargs):
                raise AssertionError("the worker regenerated a shipped trace")

            # The worker attaches the shipped segment; the runner's own
            # lookups then find it instead of regenerating.
            monkeypatch.setattr(_trace_cache, "generate_trace", no_generation)
            served = []
            real_get_trace = _trace_cache.get_trace

            def recording_get_trace(*args, **kwargs):
                served.append(real_get_trace(*args, **kwargs))
                return served[-1]

            monkeypatch.setattr(_trace_cache, "get_trace", recording_get_trace)
            _workload_task(
                (config, "gamess", ("esteem",), 0, {key: handle}, None)
            )
            assert served
            for attached in served:
                assert attached is not trace
                assert np.array_equal(attached.addrs, trace.addrs)
                assert np.array_equal(attached.gaps, trace.gaps)
                assert np.array_equal(attached.writes, trace.writes)
        finally:
            _trace_cache.clear()
            store.close()

    @pytest.mark.parametrize("techniques", [("esteem",), ("nosuch",)],
                             ids=["success", "failure"])
    def test_worker_task_drops_the_traces_it_installed(self, techniques):
        # A warm worker's next unit is another workload: the attached
        # trace, and the retire view built on it, must not outlive the
        # unit that installed it, however the unit ends.
        from repro.experiments import _trace_cache
        from repro.experiments.parallel import _workload_task
        from repro.experiments.pool import SharedTraceStore

        store = SharedTraceStore()
        try:
            config, key, _profile, _trace, handle = self._ship_gamess(store)
            _trace_cache.clear()
            task = (config, "gamess", techniques, 0, {key: handle}, None)
            if techniques == ("nosuch",):
                with pytest.raises(ParallelWorkerError):
                    _workload_task(task)
            else:
                _workload_task(task)
            assert not _trace_cache.contains(*key)
            assert _trace_cache.current_bytes() == 0
        finally:
            _trace_cache.clear()
            store.close()

    def test_worker_task_keeps_an_already_cached_trace(self):
        # A worker that inherited the trace across the fork (with any
        # views built on it) must not swap it for a fresh attachment.
        from repro.experiments import _trace_cache
        from repro.experiments.parallel import _workload_task
        from repro.experiments.pool import SharedTraceStore

        store = SharedTraceStore()
        try:
            config, key, profile, trace, handle = self._ship_gamess(store)
            _workload_task(
                (config, "gamess", ("esteem",), 0, {key: handle}, None)
            )
            assert _trace_cache.get_trace(profile, key[1], key[2]) is trace
        finally:
            store.close()

    def test_dual_core_needs_cover_every_mix_member(self):
        from repro.experiments.parallel import _trace_needs_for
        from repro.workloads.multiprog import get_mix

        config = SimConfig.scaled(num_cores=2, **CFG_KW)
        needs = _trace_needs_for(config, "GkNe", 3)
        assert [p.name for _, p in needs] == [
            p.name for p in get_mix("GkNe").profiles
        ]
        for (name, budget, seed), profile in needs:
            assert name == profile.name
            assert budget == config.instructions_per_core
            assert seed == 3

    def test_parallel_results_unchanged_by_preloading(self):
        # End to end across real processes: shipping traces must not
        # perturb results (they are the same arrays the worker would
        # have generated).
        config = SimConfig.scaled(**CFG_KW)
        out = resilient_sweep(config, ["gamess"], ("esteem",), jobs=2)
        sequential = Runner(config).compare("gamess", "esteem")
        assert out.comparisons["esteem"] == [sequential]


class TestWorkerFailures:
    """A failed unit is named in ``SweepResult.failed``; its siblings
    finish."""

    def test_failure_names_the_workload_inline(self):
        result = resilient_sweep(
            SimConfig.scaled(**CFG_KW),
            ["gamess", "no-such-benchmark"],
            ("esteem",),
            jobs=1,
        )
        (failed,) = result.failed
        assert failed.workload == "no-such-benchmark"
        assert "no-such-benchmark" in failed.detail
        assert result.completed == ["gamess"]

    def test_failure_names_the_workload_across_processes(self):
        result = resilient_sweep(
            SimConfig.scaled(**CFG_KW),
            ["gamess", "no-such-benchmark"],
            ("esteem",),
            jobs=2,
        )
        (failed,) = result.failed
        assert failed.workload == "no-such-benchmark"
        assert failed.exc_type == "KeyError"
        # The worker-side traceback crossed the process boundary as text.
        assert "Traceback" in failed.detail

    def test_failure_keeps_finished_siblings_cached(self, tmp_path):
        # A failing unit must not throw away the results of units that
        # finished beside it: gamess lands in the cache.
        from repro.experiments.result_cache import ResultCache, probe_unit

        config = SimConfig.scaled(**CFG_KW)
        cache = ResultCache(tmp_path / "results")
        result = resilient_sweep(
            config, ["gamess", "no-such-benchmark"], ("esteem",),
            jobs=2, cache=cache,
        )
        assert [f.workload for f in result.failed] == ["no-such-benchmark"]
        _fingerprint, hit = probe_unit(cache, config, "gamess", ("esteem",), 0)
        assert hit is not None
        reference = Runner(config).compare("gamess", "esteem")
        assert hit[0].result == reference.result


class TestProgress:
    def test_progress_reporter_sees_every_workload(self):
        sink = io.StringIO()
        reporter = ProgressReporter(0, label="test-sweep", stream=sink)
        resilient_sweep(
            SimConfig.scaled(**CFG_KW), WORKLOADS, ("esteem",),
            jobs=2, progress=reporter,
        )
        out = sink.getvalue()
        for workload in WORKLOADS:
            assert workload in out
        assert f"finished {len(WORKLOADS)}/{len(WORKLOADS)}" in out

    def test_progress_off_by_default(self, capsys):
        resilient_sweep(
            SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=1
        )
        assert capsys.readouterr().err == ""
