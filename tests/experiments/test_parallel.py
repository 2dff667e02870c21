"""Tests for process-parallel experiment execution."""

import io

import pytest

from repro.config import SimConfig
from repro.experiments.parallel import ParallelWorkerError, parallel_compare
from repro.experiments.runner import Runner
from repro.obs import ProgressReporter

WORKLOADS = ["gamess", "povray", "hmmer"]
CFG_KW = dict(instructions_per_core=400_000)


class TestParallelCompare:
    def test_matches_sequential_exactly(self):
        config = SimConfig.scaled(**CFG_KW)
        parallel = parallel_compare(config, WORKLOADS, ("esteem",), jobs=2)
        runner = Runner(config)
        sequential = runner.compare_many(WORKLOADS, "esteem")
        for p, s in zip(parallel["esteem"], sequential):
            assert p.workload == s.workload
            assert p.result.total_cycles == s.result.total_cycles
            assert p.result.refreshes == s.result.refreshes
            assert p.energy_saving_pct == pytest.approx(s.energy_saving_pct)

    def test_multiple_techniques_share_workload_order(self):
        config = SimConfig.scaled(**CFG_KW)
        out = parallel_compare(config, WORKLOADS, ("esteem", "rpv"), jobs=2)
        assert [c.workload for c in out["esteem"]] == WORKLOADS
        assert [c.workload for c in out["rpv"]] == WORKLOADS

    def test_jobs_one_runs_inline(self):
        config = SimConfig.scaled(**CFG_KW)
        out = parallel_compare(config, ["gamess"], ("esteem",), jobs=1)
        assert len(out["esteem"]) == 1

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError):
            parallel_compare(SimConfig.scaled(**CFG_KW), [], ("esteem",))

    def test_empty_techniques_rejected(self):
        with pytest.raises(ValueError):
            parallel_compare(SimConfig.scaled(**CFG_KW), ["gamess"], ())

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            parallel_compare(
                SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=0
            )

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            parallel_compare(
                SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=-4
            )


class TestTracePreloading:
    """Parent-generated traces ride to workers instead of being rebuilt."""

    def test_worker_task_uses_preloaded_trace(self):
        from repro.experiments import _trace_cache
        from repro.experiments.parallel import _trace_needs_for, _workload_task
        from repro.workloads.profiles import get_profile

        config = SimConfig.scaled(**CFG_KW)
        needs = _trace_needs_for(config, "gamess", 0)
        assert [p.name for _, p in needs] == ["gamess"]
        (key, profile), = needs
        trace = _trace_cache.get_trace(profile, key[1], key[2])
        _trace_cache.clear()
        # After the worker installs the shipped trace, the runner's own
        # lookup must return the very same object -- no regeneration.
        _workload_task((config, "gamess", ("esteem",), 0, {key: trace}))
        assert _trace_cache.get_trace(get_profile("gamess"), key[1], key[2]) is trace

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
        out = parallel_compare(config, ["gamess"], ("esteem",), jobs=2)
        sequential = Runner(config).compare(
            "gamess", "esteem"
        )
        assert out["esteem"][0].result.total_cycles == sequential.result.total_cycles


class TestWorkerFailures:
    def test_failure_names_the_workload_inline(self):
        with pytest.raises(ParallelWorkerError) as excinfo:
            parallel_compare(
                SimConfig.scaled(**CFG_KW),
                ["gamess", "no-such-benchmark"],
                ("esteem",),
                jobs=1,
            )
        assert excinfo.value.workload == "no-such-benchmark"
        assert "no-such-benchmark" in str(excinfo.value)

    def test_failure_names_the_workload_across_processes(self):
        with pytest.raises(ParallelWorkerError) as excinfo:
            parallel_compare(
                SimConfig.scaled(**CFG_KW),
                ["gamess", "no-such-benchmark"],
                ("esteem",),
                jobs=2,
            )
        assert excinfo.value.workload == "no-such-benchmark"
        # The worker-side traceback crossed the process boundary as text.
        assert excinfo.value.detail

    def test_failure_keeps_finished_siblings_cached(self, tmp_path):
        # A failing unit must not throw away the results of units that
        # finished beside it: gamess lands in the cache before the
        # error is raised.
        from repro.experiments.result_cache import ResultCache, probe_unit

        config = SimConfig.scaled(**CFG_KW)
        cache = ResultCache(tmp_path / "results")
        with pytest.raises(ParallelWorkerError) as excinfo:
            parallel_compare(
                config, ["gamess", "no-such-benchmark"], ("esteem",),
                jobs=2, cache=cache,
            )
        assert excinfo.value.workload == "no-such-benchmark"
        assert excinfo.value.exc_type == "KeyError"
        _fingerprint, hit = probe_unit(cache, config, "gamess", ("esteem",), 0)
        assert hit is not None
        reference = Runner(config).compare("gamess", "esteem")
        assert hit[0].result == reference.result


class TestProgress:
    def test_progress_reporter_sees_every_workload(self):
        sink = io.StringIO()
        reporter = ProgressReporter(0, label="test-sweep", stream=sink)
        parallel_compare(
            SimConfig.scaled(**CFG_KW), WORKLOADS, ("esteem",),
            jobs=2, progress=reporter,
        )
        out = sink.getvalue()
        for workload in WORKLOADS:
            assert workload in out
        assert f"finished {len(WORKLOADS)}/{len(WORKLOADS)}" in out

    def test_progress_off_by_default(self, capsys):
        parallel_compare(
            SimConfig.scaled(**CFG_KW), ["gamess"], ("esteem",), jobs=1
        )
        assert capsys.readouterr().err == ""
