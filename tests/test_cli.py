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

    def test_bench_subcommand_removed(self, capsys):
        # Speed is measured by the end-to-end benchmark
        # (benchmarks/e2e/run.py); `repro bench` is no command.
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure 3", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_bad_jobs_is_a_usage_error(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--workloads", "gamess", "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "run -w gamess --jobs 2",
        "run -w gamess --cache-dir /tmp/results",
        "trace -w gamess --no-cache",
        "run -w gamess -v",
        "figure 3 --verbose",
    ])
    def test_flags_only_sweeps_read_are_usage_errors(self, argv, capsys):
        # --jobs and the cache flags belong to the commands that sweep;
        # -v/--verbose is no flag.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "figure 2 --jobs 7",
        "figure 2 --workloads gamess",
        "figure 2 --csv out.csv",
        "figure 2 -q",
        "figure 3 --cores 2",
        "figure 5 --retention 40",
        "table 3 --alpha 0.5",
        "table 3 --cores 2",
        "table 3 --retention 40",
        "table 2 --jobs 2",
        "table 2 --instructions 1000",
        "run -w gamess -q",
    ])
    def test_flags_a_number_does_not_read_are_usage_errors(
        self, argv, capsys
    ):
        # Each figure and table number registers only the flags it reads.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "sweep --check F",
        "figure 3 --workload gamess",
    ])
    def test_flag_prefixes_are_usage_errors(self, argv, capsys):
        # A flag is spelled out in full: --check is not --checkpoint, and
        # figure 2's --workload is not figure 3's --workloads.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run -w gamess", "sweep"])
    def test_repeated_technique_flag_extends(self, command):
        args = build_parser().parse_args(
            command.split() + ["-t", "esteem", "-t", "rpv", "ecc"]
        )
        assert args.technique == ["esteem", "rpv", "ecc"]

    @pytest.mark.parametrize("command,handler", [
        ("run -w gamess", "_cmd_run"), ("sweep", "_cmd_sweep"),
    ])
    def test_technique_default_applies_only_without_t(
        self, command, handler, monkeypatch
    ):
        # argparse extends a default list: `-t ecc` must run ECC alone,
        # not esteem, rpv and ecc.
        import repro.cli

        seen = []
        monkeypatch.setattr(
            repro.cli, handler, lambda args: seen.append(args.technique) or 0
        )
        assert main(command.split()) == 0
        assert main(command.split() + ["-t", "ecc"]) == 0
        assert seen == [["esteem", "rpv"], ["ecc"]]

    def test_run_prints_one_row_per_technique(self, capsys):
        # A technique named twice runs once, in first-mention order.
        code = main(["run", "-w", "gamess", "-t", "rpv", "esteem",
                     "-t", "rpv", "esteem", "--instructions", "50000"])
        assert code == 0
        rows = [
            line.split()[0] for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["rpv"], ["esteem"])
        ]
        assert rows == ["rpv", "esteem"]

    def test_sweep_counts_each_workload_once(self, capsys):
        code = main(["sweep", "-t", "esteem", "-t", "esteem",
                     "--workloads", "gamess", "--instructions", "50000",
                     "--jobs", "1", "--no-cache", "-q"])
        assert code == 0
        rows = [
            line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("esteem ")
        ]
        assert [row[:2] for row in rows] == [["esteem", "1"]]

    @pytest.mark.parametrize("argv", [
        "trace -w gamess --capacity 0",
        "overhead --sets 0",
        "overhead --ways 0",
        "overhead --modules 0",
        "run -w gamess --instructions 0",
        "trace-stats -w gamess --instructions 0",
    ])
    def test_non_positive_size_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        flag = argv.split()[-2]
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        ("run -w gamess --alpha 2", "alpha must be in (0, 1]"),
        ("run -w gamess --retention -5", "retention must be positive"),
        ("trace -w gamess --retention 0", "retention must be positive"),
        ("figure 3 --interval 0", "interval length must be positive"),
        ("sweep --workloads gamess --retention 0",
         "retention must be positive"),
        ("run -w nosuch", "unknown benchmark 'nosuch'"),
        ("trace -w nosuch", "unknown benchmark 'nosuch'"),
        ("figure 2 --workload nosuch", "unknown benchmark 'nosuch'"),
        ("run -w gamess --cores 2", "unknown mix 'gamess'"),
    ])
    def test_bad_value_is_a_usage_error_not_a_traceback(
        self, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


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
        # One worker or two, the sweep engine must print the same table.
        # --no-cache keeps the second run from being served by the first
        # run's cached units.
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

    def test_figure_failure_exits_3_without_a_table(self, capsys):
        # An unknown workload fails its unit; the sibling finishes, and
        # the figure is not printed from a partial sweep.
        code = main(
            ["figure", "3", "--workloads", "gamess,nosuch",
             "--instructions", "100000", "--jobs", "2", "--no-cache", "-q"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "nosuch: [KeyError]" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("number,cores,retention", [
        (3, 1, 50.0), (4, 2, 50.0), (5, 1, 40.0), (6, 2, 40.0),
    ])
    def test_figure_applies_esteem_flags(
        self, number, cores, retention, capsys, monkeypatch
    ):
        # The ESTEEM flags apply on top of the figure's own core count
        # and retention period.  The Runner is built in a worker, so the
        # config is recorded where the handler hands it to the sweep.
        from repro.config import SimConfig
        from repro.experiments import parallel

        configs = []
        real_sweep = parallel.resilient_sweep

        def recording_sweep(config, *args, **kwargs):
            configs.append(config)
            return real_sweep(config, *args, **kwargs)

        monkeypatch.setattr(parallel, "resilient_sweep", recording_sweep)
        workload = "gamess" if cores == 1 else "GkNe"
        code = main(
            ["figure", str(number), "--workloads", workload,
             "--instructions", "100000", "--no-cache", "-q",
             "--alpha", "0.95", "--a-min", "2", "--modules", "4",
             "--interval", "400000", "--sampling-ratio", "32"]
        )
        assert code == 0
        assert f"Figure {number}: {cores}-core" in capsys.readouterr().out
        expected = SimConfig.scaled(
            num_cores=cores, retention_us=retention,
            instructions_per_core=100_000,
        ).with_esteem(
            alpha=0.95, a_min=2, num_modules=4, interval_cycles=400_000,
            sampling_ratio=32,
        )
        assert configs == [expected]

    def test_table3_subset(self, capsys):
        code = main(
            ["table", "3", "--system", "single",
             "--workloads", "gamess", "--instructions", "300000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "default" in out and "32 modules" in out

    def test_table3_same_rows_on_one_or_two_workers(
        self, capsys, monkeypatch
    ):
        # Every row is one sweep on --jobs workers, and the rows do not
        # depend on how many.
        from repro.experiments import parallel

        spawned = []
        real_sweep = parallel.resilient_sweep

        def recording_sweep(*args, **kwargs):
            result = real_sweep(*args, **kwargs)
            spawned.append(result.workers_spawned)
            return result

        monkeypatch.setattr(parallel, "resilient_sweep", recording_sweep)
        tables = {}
        for jobs in ("1", "2"):
            spawned.clear()
            code = main(
                ["table", "3", "--workloads", "gamess,povray",
                 "--instructions", "200000", "--jobs", jobs, "--no-cache",
                 "-q"]
            )
            assert code == 0
            tables[jobs] = capsys.readouterr().out
            assert spawned == [int(jobs)] * 17
        assert "8MB L2" in tables["1"]
        assert tables["2"] == tables["1"]

    def test_table3_rerun_is_served_from_the_cache(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.timing.system import System

        argv = ["table", "3", "--workloads", "gamess,povray",
                "--instructions", "100000", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"), "-q"]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def no_simulation(self):
            raise AssertionError("a cached Table 3 row was simulated")

        monkeypatch.setattr(System, "run", no_simulation)
        assert main(argv) == 0
        assert capsys.readouterr().out == first

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

    def test_run_profile_reports_spans(self, capsys):
        # --profile is gone: timings reach the user through the sweep
        # manifest and `repro report`, so the flag is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["run", "-w", "gamess", "-t", "esteem", "--profile",
                  "--instructions", "300000"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "-t", "esteem"], ["figure", "3"],
    ], ids=["sweep", "figure"])
    def test_sweep_profile_reports_its_span(self, argv, capsys):
        # A sweep's wall time and per-technique time are in its manifest.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workloads", "gamess", "--instructions", "50000",
                         "--jobs", "1", "--no-cache", "--profile", "-q"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

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
             "--checkpoint", "c.jsonl",
             "--inject", "plan.json", "--manifest", "m.json"]
        )
        assert args.command == "sweep"
        assert args.workloads == "gamess,povray"
        assert args.timeout == 5.0
        assert args.retries == 1
        assert args.checkpoint == "c.jsonl"

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

    def test_cached_selective_sets_sweep_reruns_from_the_cache(
        self, capsys, tmp_path
    ):
        # Selective-sets results carry a non-empty timeline, which the
        # result cache must store and serve back.
        import json

        def sweep(name):
            manifest = tmp_path / f"{name}.json"
            code = main(
                ["sweep", "--workloads", "sphinx", "-t", "selective-sets",
                 "--instructions", "1000000", "--jobs", "1",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--csv", str(tmp_path / f"{name}.csv"),
                 "--manifest", str(manifest), "-q"]
            )
            assert code == 0
            out = capsys.readouterr().out.splitlines()
            attempts = json.loads(manifest.read_text())["attempts"]
            # The title notes cached units; the table below it must match.
            return attempts, out[2:-2], (tmp_path / f"{name}.csv").read_text()

        first, rerun = sweep("first"), sweep("rerun")
        assert first[0] == 1 and rerun[0] == 0
        assert rerun[1:] == first[1:]
        assert "selective-sets" in "".join(first[1])

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

    def test_poison_quarantine_exits_3_and_report_checks(
        self, capsys, tmp_path
    ):
        # A "poison" unit kills every worker that runs it.  There is no
        # quarantine: --retries bounds it, after which the unit is failed
        # while the rest of the sweep completes.
        import json

        from repro.experiments.report import validate_manifest
        from repro.faults import FaultPlan

        plan_path = tmp_path / "plan.json"
        FaultPlan(chaos={"povray": ("crash",) * 8}).save(plan_path)
        manifest_path = tmp_path / "manifest.json"
        code = main(
            ["sweep", "--workloads", "gamess,povray", "-t", "esteem",
             "--instructions", "200000", "--retries", "2",
             "--backoff", "0.01", "--inject", str(plan_path),
             "--manifest", str(manifest_path), "-q"]
        )
        assert code == 3
        assert "DEGRADED" in capsys.readouterr().err
        manifest = json.loads(manifest_path.read_text())
        assert validate_manifest(manifest) == []
        assert "quarantined" not in manifest
        assert manifest["completed"] == ["gamess"]
        (failed,) = manifest["failed"]
        assert failed["workload"] == "povray"
        assert failed["exc_type"] == "WorkerCrash"
        assert failed["attempts"] == 3
        # A degraded-but-consistent manifest still passes report --check.
        assert main(["report", str(manifest_path), "--check", "-q"]) == 0
        capsys.readouterr()

    def test_supervision_flags_parse(self):
        args = build_parser().parse_args(
            ["sweep", "--workloads", "gamess", "--timeout", "30",
             "--retries", "4", "--backoff", "0.25"]
        )
        assert (args.timeout, args.retries, args.backoff) == (30.0, 4, 0.25)

    @pytest.mark.parametrize(
        "flag",
        ["--heartbeat", "--quarantine-after", "--deadline", "--trace-events",
         "--resume"],
    )
    def test_removed_supervision_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["sweep", flag, "2"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_supervision_flag_validation(self, capsys):
        base = ["sweep", "--workloads", "gamess", "-q"]
        for flag, value, rule in (
            ("--timeout", "0", "must be positive"),
            ("--timeout", "-2", "must be positive"),
            ("--timeout", "nan", "must be positive"),
            ("--retries", "-1", "must be non-negative"),
            ("--retries", "1.5", "invalid _non_negative_int value"),
            ("--backoff", "-1", "must be non-negative"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(base + [flag, value])
            assert excinfo.value.code == 2, flag
            err = capsys.readouterr().err
            assert f"argument {flag}: {rule}" in err, err

    @pytest.mark.parametrize(
        "cache,hint",
        [
            (True, "rerun the same command to finish the skipped units; "
                   "finished units come back from the result cache"),
            (False, "rerun the same command to finish the skipped units"),
        ],
        ids=["cache", "no-cache"],
    )
    def test_interrupted_sweep_names_the_rerun_that_finishes_it(
        self, cache, hint, capsys, tmp_path, monkeypatch
    ):
        # The same command finishes an interrupted sweep; with the cache
        # on, its finished units are served from the cache.  The CLI and
        # the report both say so.
        import json

        from repro.experiments import parallel

        manifest_path = tmp_path / "manifest.json"
        base = ["sweep", "-t", "esteem", "--instructions", "50000",
                "--jobs", "1", "-q"]
        base += (["--cache-dir", str(tmp_path / "cache")] if cache
                 else ["--no-cache"])
        assert main(base + ["--workloads", "gamess"]) == 0
        argv = base + ["--workloads", "gamess,povray",
                       "--manifest", str(manifest_path)]
        capsys.readouterr()

        real_enter = parallel.ParentSignalWatch.__enter__

        def signalled(watch):
            # SIGTERM lands before the first dispatch: povray is skipped.
            real_enter(watch)
            watch.signame = "SIGTERM"
            return watch

        with monkeypatch.context() as patch:
            patch.setattr(parallel.ParentSignalWatch, "__enter__", signalled)
            assert main(argv) == 4
        err = capsys.readouterr().err
        assert f"INTERRUPTED by SIGTERM: {hint}\n" in err
        assert main(["report", str(manifest_path)]) == 0
        assert f"**Interrupted by SIGTERM** -- {hint}." in (
            capsys.readouterr().out
        )

        # The rerun the hint names finishes the sweep; without the cache
        # it runs every unit again.
        assert main(argv) == 0
        capsys.readouterr()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["completed"] == ["gamess", "povray"]
        assert manifest["attempts"] == (1 if cache else 2)
        assert manifest["cached"] == (["gamess"] if cache else [])

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
             "--check", "-q"]
        )
        assert args.command == "report"
        assert args.manifest == "m.json"
        assert args.format == "csv"
        assert args.output == "r.csv"
        assert args.check is True
        assert args.quiet is True

    @pytest.mark.parametrize(
        "flag", ["--tolerance", "--bench-throughput", "--bench-sweep"]
    )
    def test_removed_report_flags_rejected(self, flag, capsys):
        # `report --check` is the manifest consistency check alone: it
        # reads no rate baseline.
        with pytest.raises(SystemExit) as exc:
            main(["report", "m.json", "--check", flag, "0.2"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-0.1", "1", "2"])
    def test_out_of_range_tolerance_is_a_usage_error(self, value, capsys):
        # --tolerance is gone, so any value of it is a usage error.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["report", "m.json", "--check", "--tolerance", value]
            )
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--bench-throughput", "--bench-sweep"])
    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                             ids=["missing", "corrupt", "not-an-object"])
    def test_named_baseline_must_load(
        self, manifest, flag, content, capsys, tmp_path
    ):
        # A rate baseline file can no longer be named at all: the check
        # exits 2 on the flag and never reports a consistent manifest ok.
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["report", str(manifest), "--check", flag, str(baseline),
                  "-q"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "check ok" not in err

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("report") / "manifest.json"
        code = main(
            ["sweep", "--workloads", "gamess", "-t", "esteem",
             "--instructions", "30000", "--jobs", "1", "--no-cache",
             "--manifest", str(path), "-q"]
        )
        assert code == 0
        return path

    def test_consistent_manifest_passes_check(self, manifest, capsys):
        assert main(["report", str(manifest), "--check"]) == 0
        err = capsys.readouterr().err
        assert "check ok" in err
        assert "INCONSISTENT" not in err

    def test_inconsistent_manifest_fails_check(
        self, manifest, capsys, tmp_path
    ):
        import json

        # One merged telemetry counter no longer equals the sum of the
        # per-unit truths.
        broken = json.loads(manifest.read_text())
        counters = broken["telemetry"]["counters"]
        name = sorted(counters)[0]
        counters[name] += 1
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(broken))
        code = main(["report", str(path), "--check", "-q"])
        assert code == 1
        err = capsys.readouterr().err
        assert "INCONSISTENT" in err
        assert name in err

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

    def _rejects_manifest_version(self, version, capsys, tmp_path):
        import json

        path = tmp_path / "manifest.json"
        code = main(
            ["sweep", "--workloads", "gamess", "-t", "esteem",
             "--instructions", "30000", "--jobs", "1", "--no-cache",
             "--manifest", str(path), "-q"]
        )
        assert code == 0
        assert main(["report", str(path), "-q"]) == 0
        capsys.readouterr()
        manifest = json.loads(path.read_text())
        manifest["manifest_version"] = version
        path.write_text(json.dumps(manifest))
        assert main(["report", str(path), "-q"]) == 2
        assert "manifest_version" in capsys.readouterr().err

    def test_v2_manifest_rejected(self, capsys, tmp_path):
        self._rejects_manifest_version(2, capsys, tmp_path)

    def test_v3_manifest_rejected(self, capsys, tmp_path):
        self._rejects_manifest_version(3, capsys, tmp_path)

    def test_v4_manifest_rejected(self, capsys, tmp_path):
        self._rejects_manifest_version(4, capsys, tmp_path)


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

        # `repro report --check` passes on the manifest as written ...
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

        # ... and fails once one merged counter disagrees with the
        # per-unit truths.
        counters = telem["counters"]
        name = sorted(counters)[0]
        counters[name] += 1
        broken_path = tmp_path / "broken.json"
        broken_path.write_text(json.dumps(manifest))
        code = main(
            ["report", str(broken_path), "--check",
             "--output", str(tmp_path / "broken.md"), "-q"]
        )
        assert code == 1
        assert "INCONSISTENT" in capsys.readouterr().err


class TestCachedStartup:
    """A sweep served whole from the result cache, and the report on its
    manifest, load neither NumPy nor the simulator: the same process
    shape as the benchmark's sweep wrapper (``main``, then the pool's
    shared-memory audit).  Nor do a figure and a table served from the
    cache."""

    SCRIPT = """\
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    sweep = main(sys.argv[1:])
from repro.experiments.pool import active_shm_segments
leaked = active_shm_segments()
with contextlib.redirect_stdout(io.StringIO()):
    report = main(["report", sys.argv[sys.argv.index("--manifest") + 1]])
print(json.dumps({
    "sweep": sweep, "report": report, "leaked": leaked,
    "loaded": [m for m in ("numpy", "repro.timing.system")
               if m in sys.modules],
}))
"""

    def test_cached_sweep_and_report_load_no_simulator(
        self, tmp_path, repro_env
    ):
        import json
        import subprocess
        import sys

        argv = ["sweep", "--workloads", "gamess,povray",
                "--instructions", "50000",
                "--cache-dir", str(tmp_path / "cache"), "-q"]
        fill = subprocess.run(
            [sys.executable, "-m", "repro", *argv], env=repro_env,
            capture_output=True, text=True, timeout=300,
        )
        assert fill.returncode == 0, fill.stderr
        manifest_path = tmp_path / "manifest.json"
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv,
             "--checkpoint", str(tmp_path / "sweep.ckpt.jsonl"),
             "--manifest", str(manifest_path)],
            env=repro_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {
            "sweep": 0, "report": 0, "leaked": [], "loaded": [],
        }
        assert json.loads(manifest_path.read_text())["attempts"] == 0

    FIGURE_AND_TABLE = """\
import contextlib, io, json, sys
from repro.cli import main
codes = []
for argv in (["figure", "3"], ["table", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv + sys.argv[1:]))
print(json.dumps({
    "codes": codes,
    "loaded": [m for m in ("numpy", "repro.timing.system")
               if m in sys.modules],
}))
"""

    def test_cached_figure_and_table_load_no_simulator(
        self, tmp_path, repro_env
    ):
        import json
        import subprocess
        import sys

        flags = ["--workloads", "gamess,povray", "--instructions", "50000",
                 "--cache-dir", str(tmp_path / "cache"), "-q"]
        for command in (["figure", "3"], ["table", "3"]):
            fill = subprocess.run(
                [sys.executable, "-m", "repro", *command, *flags],
                env=repro_env, capture_output=True, text=True, timeout=300,
            )
            assert fill.returncode == 0, fill.stderr
        proc = subprocess.run(
            [sys.executable, "-c", self.FIGURE_AND_TABLE, *flags],
            env=repro_env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {"codes": [0, 0], "loaded": []}
