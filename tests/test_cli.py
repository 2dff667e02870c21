"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_parses_knobs(self):
        args = build_parser().parse_args(
            ["run", "-w", "gamess", "-t", "esteem", "--alpha", "0.95",
             "--a-min", "2", "--modules", "4", "--instructions", "100000"]
        )
        assert args.workload == "gamess"
        assert args.alpha == 0.95
        assert args.a_min == 2

    def test_figure_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "7"])

    def test_technique_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "-w", "x", "-t", "magic"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_parses_knobs(self):
        args = build_parser().parse_args(
            ["bench", "--update", "--rounds", "2", "--instructions",
             "200000", "-w", "gamess", "-v"]
        )
        assert args.command == "bench"
        assert args.update and args.rounds == 2
        assert args.instructions == 200_000
        assert args.workload == "gamess"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gamess" in out
        assert "GkNe" in out
        assert "esteem" in out

    def test_overhead(self, capsys):
        assert main(["overhead", "--sets", "4096", "--ways", "16",
                     "--modules", "16"]) == 0
        assert "0.0584%" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 MB" in out and "0.212" in out

    def test_run_small(self, capsys):
        code = main(
            ["run", "-w", "gamess", "-t", "esteem",
             "--instructions", "300000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "esteem" in out
        assert "saving %" in out

    def test_figure2_small(self, capsys):
        code = main(
            ["figure", "2", "--workload", "gamess",
             "--instructions", "2000000"]
        )
        assert code == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_figure3_subset(self, capsys):
        # --jobs 1 runs the sequential Runner; --jobs 2 runs
        # parallel_compare on the sweep engine.  Both must print the same
        # table.  --no-cache keeps the second run from being served by
        # the first run's cached units.
        tables = {}
        for jobs in ("1", "2"):
            code = main(
                ["figure", "3", "--workloads", "gamess,povray",
                 "--instructions", "300000", "--jobs", jobs, "--no-cache",
                 "-q"]
            )
            assert code == 0
            tables[jobs] = capsys.readouterr().out
        assert "AVERAGE" in tables["1"]
        assert tables["2"] == tables["1"]

    def test_table3_subset(self, capsys):
        code = main(
            ["table", "3", "--system", "single",
             "--workloads", "gamess", "--instructions", "300000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "default" in out and "32 modules" in out

    def test_run_dual_core(self, capsys):
        code = main(
            ["run", "-w", "GkNe", "-t", "esteem", "--cores", "2",
             "--instructions", "300000"]
        )
        assert code == 0
        assert "GkNe" in capsys.readouterr().out

    def test_trace_stats(self, capsys, tmp_path):
        out_path = tmp_path / "trace.npz"
        code = main(
            ["trace-stats", "-w", "gamess", "--instructions", "500000",
             "--save", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "distinct lines" in out
        assert "reuse distance" in out
        assert out_path.exists()
        from repro.workloads.trace import Trace

        loaded = Trace.load(out_path)
        assert loaded.name == "gamess"

    def test_figure_csv_export(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        code = main(
            ["figure", "3", "--workloads", "gamess",
             "--instructions", "300000", "--csv", str(csv_path)]
        )
        assert code == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("workload,technique")

    def test_run_new_techniques(self, capsys):
        code = main(
            ["run", "-w", "gamess", "-t", "esteem-drowsy", "decay", "ecc",
             "--instructions", "300000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for tech in ("esteem-drowsy", "decay", "ecc"):
            assert tech in out

    def test_trace_jsonl_shape(self, capsys):
        import json

        code = main(
            ["trace", "-w", "gamess", "-t", "esteem",
             "--instructions", "2000000"]
        )
        assert code == 0
        captured = capsys.readouterr()
        events = [json.loads(ln) for ln in captured.out.splitlines()]
        assert events, "expected at least one event"
        for event in events:
            assert set(event) == {"seq", "type", "cycle", "data"}
        types = {e["type"] for e in events}
        assert "sim.start" in types
        assert "sim.end" in types
        assert "interval.decision" in types
        assert "refresh.burst" in types
        decisions = [e for e in events if e["type"] == "interval.decision"]
        for d in decisions:
            assert isinstance(d["data"]["n_active_way"], list)
            assert 0.0 <= d["data"]["active_fraction"] <= 1.0
        # Summary line lands on stderr, not stdout.
        assert "trace:" in captured.err

    def test_trace_pretty_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "trace.txt"
        code = main(
            ["trace", "-w", "gamess", "--format", "pretty",
             "--output", str(out_path), "--instructions", "1000000"]
        )
        assert code == 0
        text = out_path.read_text()
        assert "interval.decision" in text
        assert capsys.readouterr().out == ""

    def test_trace_quiet_suppresses_stderr(self, capsys):
        code = main(
            ["trace", "-w", "gamess", "-q", "--instructions", "1000000"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_bench_update_writes_baseline(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.throughput as throughput

        baseline = tmp_path / "BENCH_throughput.json"
        monkeypatch.setattr(throughput, "BASELINE_PATH", baseline)
        code = main(
            ["bench", "--update", "--rounds", "1", "--instructions",
             "200000", "-w", "sphinx", "--profile", "-v"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "throughput: sphinx" in captured.out
        assert "batch/scalar" in captured.out
        assert f"baseline written to {baseline}" in captured.out
        assert "bench: baseline:" in captured.err  # -v progress
        assert "bench:rpv:reference" in captured.err  # --profile spans
        import json

        record = json.loads(baseline.read_text())
        rows = record["bench_end_to_end_simulation_rate"]["techniques"]
        assert set(rows) == {"baseline", "rpv", "esteem"}
        for row in rows.values():
            assert row["batch_seconds"] > 0
            assert row["scalar_seconds"] > 0
            assert row["reference_seconds"] > 0

    def test_run_profile_reports_spans(self, capsys):
        code = main(
            ["run", "-w", "gamess", "-t", "esteem", "--profile",
             "--instructions", "300000"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "system.run:gamess:esteem" in err

    def test_table3_progress_on_stderr(self, capsys):
        code = main(
            ["table", "3", "--system", "single",
             "--workloads", "gamess", "--instructions", "300000"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "table3-single" in err and "ETA" in err


class TestSweepCommand:
    def test_sweep_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--workloads", "gamess,povray", "-t", "esteem",
             "--timeout", "5", "--retries", "1", "--backoff", "0.1",
             "--checkpoint", "c.jsonl", "--resume",
             "--inject", "plan.json", "--manifest", "m.json"]
        )
        assert args.command == "sweep"
        assert args.workloads == "gamess,povray"
        assert args.timeout == 5.0
        assert args.retries == 1
        assert args.resume is True

    def test_sweep_small_complete(self, capsys):
        code = main(
            ["sweep", "--workloads", "gamess", "-t", "esteem",
             "--instructions", "200000"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "sweep: 1/1 workloads" in captured.out
        assert "esteem" in captured.out
        assert "sweep complete" in captured.err

    def test_resume_requires_checkpoint(self, capsys):
        code = main(["sweep", "--workloads", "gamess", "--resume", "-q"])
        assert code == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_degraded_sweep_exits_3_with_manifest(self, capsys, tmp_path):
        import json

        from repro.faults import FaultPlan

        plan_path = tmp_path / "plan.json"
        FaultPlan(chaos={"gamess": ("crash",) * 8}).save(plan_path)
        manifest_path = tmp_path / "manifest.json"
        code = main(
            ["sweep", "--workloads", "gamess", "-t", "esteem",
             "--instructions", "200000", "--retries", "1",
             "--backoff", "0.01", "--inject", str(plan_path),
             "--manifest", str(manifest_path), "-q"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "DEGRADED" in captured.err
        assert "[WorkerCrash]" in captured.err
        manifest = json.loads(manifest_path.read_text())
        assert manifest["degraded"] is True
        assert manifest["failed"][0]["workload"] == "gamess"

    def test_supervision_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--workloads", "gamess",
             "--heartbeat", "0.5", "--deadline", "30",
             "--quarantine-after", "2"]
        )
        assert args.heartbeat == 0.5
        assert args.deadline == 30.0
        assert args.quarantine_after == 2

    def test_supervision_flag_validation(self, capsys):
        base = ["sweep", "--workloads", "gamess", "-q"]
        assert main(base + ["--heartbeat", "0"]) == 2
        assert "--heartbeat must be positive" in capsys.readouterr().err
        assert main(base + ["--deadline", "-1"]) == 2
        assert "--deadline must be positive" in capsys.readouterr().err
        assert main(base + ["--quarantine-after", "0"]) == 2
        assert (
            "--quarantine-after must be at least 1"
            in capsys.readouterr().err
        )

    def test_poison_quarantine_exits_3_and_report_checks(
        self, capsys, tmp_path
    ):
        import json

        from repro.experiments.report import validate_manifest
        from repro.faults import FaultPlan

        plan_path = tmp_path / "plan.json"
        FaultPlan(chaos={"povray": ("poison",) * 8}).save(plan_path)
        manifest_path = tmp_path / "manifest.json"
        code = main(
            ["sweep", "--workloads", "gamess,povray", "-t", "esteem",
             "--instructions", "200000", "--retries", "5",
             "--backoff", "0.01", "--quarantine-after", "2",
             "--inject", str(plan_path),
             "--manifest", str(manifest_path), "-q"]
        )
        assert code == 3
        assert "QUARANTINED" in capsys.readouterr().err
        manifest = json.loads(manifest_path.read_text())
        assert validate_manifest(manifest) == []
        assert manifest["quarantined"][0]["workload"] == "povray"
        assert manifest["completed"] == ["gamess"]
        # A degraded-but-consistent manifest still passes report --check.
        assert main(["report", str(manifest_path), "--check", "-q"]) == 0
        capsys.readouterr()

    def test_bad_inject_plan_reported(self, capsys, tmp_path):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text("{broken")
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["sweep", "--workloads", "gamess", "-t", "esteem",
                 "--instructions", "200000", "--inject", str(plan_path), "-q"]
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bad.json" in err


class TestReportCommand:
    def test_report_flags_parse(self):
        args = build_parser().parse_args(
            ["report", "m.json", "--format", "csv", "--output", "r.csv",
             "--check", "--tolerance", "0.2",
             "--bench-throughput", "t.json", "--bench-sweep", "s.json"]
        )
        assert args.command == "report"
        assert args.manifest == "m.json"
        assert args.format == "csv"
        assert args.check is True
        assert args.tolerance == 0.2

    def test_unreadable_manifest_exits_2(self, capsys, tmp_path):
        code = main(["report", str(tmp_path / "missing.json"), "-q"])
        assert code == 2
        assert "cannot read manifest" in capsys.readouterr().err

    def test_schema_invalid_manifest_exits_2(self, capsys, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "not-a-manifest"}))
        code = main(["report", str(path), "-q"])
        assert code == 2
        assert "schema" in capsys.readouterr().err


class TestCampaignAcceptance:
    """ISSUE 6 acceptance: an 8-unit chaos sweep produces a manifest whose
    campaign counters exactly equal the sum of the per-unit truths, and
    ``repro report --check`` gates it correctly both ways."""

    WORKLOADS = "gamess,povray,sphinx,h264ref,milc,libquantum,soplex,gcc"

    def test_sweep_manifest_report_roundtrip(self, capsys, tmp_path):
        import json

        from repro.experiments.report import validate_manifest
        from repro.faults import FaultPlan

        plan_path = tmp_path / "plan.json"
        FaultPlan(
            seed=7,
            flip_rate=2e-4,
            chaos={"gamess": ("crash",), "h264ref": ("hang",)},
            hang_seconds=30.0,
        ).save(plan_path)
        manifest_path = tmp_path / "manifest.json"
        code = main(
            ["sweep", "--workloads", self.WORKLOADS, "-t", "esteem", "rpv",
             "--jobs", "4", "--instructions", "60000", "--timeout", "3",
             "--retries", "2", "--backoff", "0.1",
             "--inject", str(plan_path),
             "--cache-dir", str(tmp_path / "cache"),
             "--manifest", str(manifest_path), "-q"]
        )
        assert code == 0, capsys.readouterr().err
        capsys.readouterr()

        manifest = json.loads(manifest_path.read_text())
        assert validate_manifest(manifest) == []
        assert sorted(manifest["completed"]) == sorted(
            self.WORKLOADS.split(",")
        )

        # The injected crash and hang each burned exactly one retry and
        # left their trace in the timeline.
        assert manifest["retries"] == 2
        retried = {
            t["workload"]: t for t in manifest["timeline"]
            if t["outcome"] == "retry"
        }
        assert set(retried) == {"gamess", "h264ref"}
        assert retried["h264ref"]["exc_type"] == "TimeoutError"

        # Aggregated campaign counters exactly equal the sum of the
        # per-unit truths: records simulated, fault outcomes, everything.
        telem = manifest["telemetry"]
        assert len(telem["per_unit"]) == 8
        for name, total in telem["counters"].items():
            summed = sum(
                u["counters"].get(name, 0.0)
                for u in telem["per_unit"].values()
            )
            if float(summed).is_integer():
                assert total == summed, name
            else:
                assert total == pytest.approx(summed, rel=1e-9), name
        assert telem["rollup"]["records"] > 0
        assert telem["rollup"]["faults"], "Plane-1 faults must be counted"

        # Result-cache truth: every unit missed then stored on this
        # first pass through an empty cache directory.
        stats = manifest["result_cache"]
        assert stats["misses"] == 8
        assert stats["stores"] == 8
        assert stats["hits"] == 0

        # `repro report --check` passes against the committed baselines
        # (scale-gated: a smoke sweep skips, never spuriously fails).
        report_path = tmp_path / "report.md"
        code = main(
            ["report", str(manifest_path), "--check",
             "--output", str(report_path), "-q"]
        )
        assert code == 0, capsys.readouterr().err
        text = report_path.read_text()
        assert "## Retry / backoff timeline" in text
        assert "TimeoutError" in text
        capsys.readouterr()

        # ... and correctly fails on a synthetically-regressed baseline
        # built at the manifest's own scale, so the gate engages.
        bench = manifest["bench"]
        fake = {
            "bench_end_to_end_simulation_rate": {
                "instructions": bench["instructions_per_core"],
                "techniques": {
                    name: {"minstr_per_s": entry["minstr_per_s"] * 100}
                    for name, entry in bench["per_technique"].items()
                },
            }
        }
        fake_path = tmp_path / "fake_bench.json"
        fake_path.write_text(json.dumps(fake))
        code = main(
            ["report", str(manifest_path), "--check",
             "--bench-throughput", str(fake_path),
             "--output", str(tmp_path / "regressed.md"), "-q"]
        )
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err
