"""Content-addressed sweep result cache: fingerprinting, hits, corruption."""

import dataclasses
import json
import os

import pytest

from repro.config import SimConfig
from repro.experiments import result_cache as rc
from repro.experiments.parallel import resilient_sweep
from repro.experiments.result_cache import (
    ResultCache,
    default_cache_dir,
    unit_fingerprint,
)
from repro.experiments.runner import Runner
from repro.faults import FaultPlan

CFG_KW = dict(instructions_per_core=200_000, interval_cycles=100_000)


def config(**overrides):
    kw = {**CFG_KW, **overrides}
    return SimConfig.scaled(**kw)


class TestFingerprint:
    def test_stable_across_calls(self):
        cfg = config()
        a = unit_fingerprint(cfg, "gamess", ("esteem",), 1234)
        b = unit_fingerprint(config(), "gamess", ("esteem",), 1234)
        assert a == b
        assert len(a) == 64

    @pytest.mark.parametrize(
        "variant",
        [
            dict(workload="povray"),
            dict(techniques=("rpv",)),
            dict(techniques=("esteem", "rpv")),
            dict(seed=5678),
            dict(plan=FaultPlan(flip_rate=1e-4, seed=3)),
        ],
    )
    def test_every_input_is_load_bearing(self, variant):
        base = dict(
            workload="gamess", techniques=("esteem",), seed=1234, plan=None
        )
        cfg = config()
        reference = unit_fingerprint(
            cfg, base["workload"], base["techniques"], base["seed"], base["plan"]
        )
        kw = {**base, **variant}
        assert (
            unit_fingerprint(
                cfg, kw["workload"], kw["techniques"], kw["seed"], kw["plan"]
            )
            != reference
        )

    def test_config_change_forces_miss(self):
        a = unit_fingerprint(config(), "gamess", ("esteem",), 1234)
        b = unit_fingerprint(
            config(instructions_per_core=300_000), "gamess", ("esteem",), 1234
        )
        assert a != b

    def test_engine_version_bump_forces_miss(self, monkeypatch):
        cfg = config()
        before = unit_fingerprint(cfg, "gamess", ("esteem",), 1234)
        monkeypatch.setattr(rc, "SIM_ENGINE_VERSION", 999)
        assert unit_fingerprint(cfg, "gamess", ("esteem",), 1234) != before

    def test_profile_parameters_are_hashed(self, monkeypatch):
        # Editing a workload generator's parameters must invalidate its
        # cached units even though the workload *name* is unchanged.
        cfg = config()
        before = unit_fingerprint(cfg, "gamess", ("esteem",), 1234)
        real = rc.profiles_for

        def tweaked(config, workload):
            return [
                dataclasses.replace(p, base_cpi=p.base_cpi + 0.25)
                for p in real(config, workload)
            ]

        monkeypatch.setattr(rc, "profiles_for", tweaked)
        assert unit_fingerprint(cfg, "gamess", ("esteem",), 1234) != before

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            unit_fingerprint(config(), "no-such-benchmark", ("esteem",), 1234)


class TestDefaultCacheDir:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"

    def test_falls_back_to_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()).endswith(
            os.path.join(".cache", "repro", "results")
        )


class TestResultCache:
    def test_round_trip_is_bit_for_bit(self, tmp_path):
        cfg = config()
        runner = Runner(cfg)
        comparisons = [
            runner.compare("gamess", "esteem"),
            runner.compare("gamess", "rpv"),
        ]
        cache = ResultCache(tmp_path)
        fp = unit_fingerprint(cfg, "gamess", ("esteem", "rpv"), runner.seed)
        cache.put(fp, comparisons)
        hit = cache.get(fp)
        assert hit == comparisons  # dataclass equality: every float exact

    def test_absent_fingerprint_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        assert cache.stats()["misses"] == 1

    def test_corrupt_json_is_a_counted_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / ("a" * 64 + ".json")).write_text("{not json", "utf-8")
        assert cache.get("a" * 64) is None
        stats = cache.stats()
        assert (stats["corrupt"], stats["misses"]) == (1, 1)

    def test_wrong_magic_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "b" * 64
        (tmp_path / f"{fp}.json").write_text(
            json.dumps({"magic": "other-tool", "fingerprint": fp}), "utf-8"
        )
        assert cache.get(fp) is None

    def test_fingerprint_mismatch_inside_file_is_a_miss(self, tmp_path):
        # A renamed/copied entry must not satisfy a different unit.
        cache = ResultCache(tmp_path)
        (tmp_path / ("c" * 64 + ".json")).write_text(
            json.dumps(
                {"magic": rc._MAGIC, "fingerprint": "d" * 64, "comparisons": []}
            ),
            "utf-8",
        )
        assert cache.get("c" * 64) is None

    def test_store_counter_increments(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("e" * 64, [])
        assert cache.stats()["stores"] == 1


class TestSweepIntegration:
    def test_second_sweep_runs_nothing_and_matches(self, tmp_path):
        cfg = config()
        cache = ResultCache(tmp_path)
        cold = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1, cache=cache
        )
        warm = resilient_sweep(
            cfg, ["gamess", "povray"], ("esteem",), jobs=1, cache=cache
        )
        assert cold.attempts == 2 and cold.cached == []
        assert warm.attempts == 0
        assert sorted(warm.cached) == ["gamess", "povray"]
        assert warm.comparisons == cold.comparisons

    def test_fully_cached_sweep_generates_no_trace(
        self, tmp_path, monkeypatch
    ):
        # Traces are prepared at a unit's first dispatch; a unit served
        # from the cache is never dispatched, so it must never ask for one.
        from repro.experiments import _trace_cache

        cfg = config()
        cache = ResultCache(tmp_path)
        workloads = ["gamess", "povray", "h264ref"]
        cold = resilient_sweep(
            cfg, workloads, ("esteem",), jobs=2, cache=cache
        )

        def refuse(*_args, **_kwargs):
            raise AssertionError("a cached unit generated a trace")

        monkeypatch.setattr(_trace_cache, "get_trace", refuse)
        warm = resilient_sweep(
            cfg, workloads, ("esteem",), jobs=2, cache=cache
        )
        assert warm.attempts == 0
        assert warm.cached == workloads
        assert warm.workers_spawned == 0
        assert warm.comparisons == cold.comparisons

    def test_fault_plan_presence_forces_recompute(self, tmp_path):
        cfg = config()
        cache = ResultCache(tmp_path)
        resilient_sweep(cfg, ["gamess"], ("esteem",), jobs=1, cache=cache)
        plan = FaultPlan(flip_rate=2e-4, seed=7)
        with_plan = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1, cache=cache, plan=plan
        )
        assert with_plan.attempts == 1 and with_plan.cached == []
        # ... and the faulty unit is cached under its own address.
        again = resilient_sweep(
            cfg, ["gamess"], ("esteem",), jobs=1, cache=cache, plan=plan
        )
        assert again.attempts == 0
        assert again.comparisons == with_plan.comparisons


class TestCliIntegration:
    def test_cli_sweep_hits_cache_on_second_run(self, capsys):
        from repro.cli import main

        argv = [
            "sweep", "--workloads", "gamess", "--instructions", "200000",
            "--jobs", "1",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(1 cached)" not in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "(1 cached)" in second

    def test_cli_no_cache_disables_probing(self, capsys):
        from repro.cli import main

        argv = [
            "sweep", "--workloads", "gamess", "--instructions", "200000",
            "--jobs", "1", "--no-cache",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cached" not in capsys.readouterr().out

    def test_cli_rejects_bad_jobs(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workloads", "gamess", "--jobs", "0"])
        assert exc.value.code == 2
        assert "jobs" in capsys.readouterr().err
