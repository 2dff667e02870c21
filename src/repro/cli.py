"""Command-line interface: ``repro`` / ``python -m repro``.

Subcommands::

    repro list                          # workloads, mixes, techniques
    repro run -w h264ref -t esteem      # one comparison against the baseline
    repro run -w GkNe -t esteem --cores 2
    repro figure 3                      # regenerate a figure's series
    repro table 3 --system single      # regenerate Table 3 rows
    repro overhead --sets 4096 --ways 16 --modules 16   # Eq. 1
    repro trace -w h264ref -t esteem --format jsonl     # event trace dump
    repro sweep --workloads gamess,povray --inject PLAN.json  # resilient sweep
    repro report MANIFEST.json --check  # campaign report + consistency check

Each command, and each figure and table number, accepts only the flags
it reads.  The simulating commands take ``--instructions`` (trace
scale) and ``--seed``; ``run``, ``trace``, ``sweep`` and ``figure 2``
also take ``--cores``, ``--retention`` (us) and the ESTEEM knobs
(``--alpha``, ``--a-min``, ``--modules``, ``--interval``,
``--sampling-ratio``), which figures 3-6 take on top of their own core
count and retention.  A flag value the configuration rejects, or an
unknown ``--workload``, is a usage error (exit 2).

The sweep-shaped subcommands (``sweep``, ``figure`` 3-6 and ``table 3``)
run their (workload, techniques) units through one engine,
:func:`~repro.experiments.parallel.resilient_sweep`, on ``--jobs``
worker processes (default: the CPU count), with ``-q``/``--quiet``
silencing their stderr progress.  They consult a content-addressed
result cache so unchanged units are never re-simulated, and the same
command again finishes an interrupted one; ``--no-cache`` disables the
cache and ``--cache-dir`` relocates it (default: ``$REPRO_CACHE_DIR`` or
``~/.cache/repro/results``).  A sweep's wall time, and each
technique's, reach the user through ``sweep --manifest`` and ``repro
report``.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn, Sequence

# Only NumPy-free modules load here; each handler imports the rest, so a
# command that simulates nothing (``list``, ``report``, a sweep or figure
# served from the result cache) never imports NumPy or the simulator.
from repro.config import SimConfig
from repro.experiments.report import format_table, rerun_hint
from repro.timing.result import TECHNIQUES
from repro.workloads.multiprog import DUAL_CORE_MIXES
from repro.workloads.profiles import ALL_BENCHMARKS

__all__ = ["main"]


def _positive_int(text: str) -> int:
    """An integer of at least 1, for counts and sizes such as ``--jobs``
    (else a usage error)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """An integer of at least 0, for ``sweep --retries``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive_float(text: str) -> float:
    """A number above 0, for ``sweep --timeout``."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    """Trace scale and seed, for every simulating command."""
    parser.add_argument("--instructions", type=_positive_int,
                        default=8_000_000,
                        help="instructions simulated per core")
    parser.add_argument("--seed", type=int, default=0)


def _add_esteem_args(parser: argparse.ArgumentParser) -> None:
    """The ESTEEM knobs (``None``: the configuration's default)."""
    parser.add_argument("--alpha", type=float, default=None)
    parser.add_argument("--a-min", type=int, default=None, dest="a_min")
    parser.add_argument("--modules", type=int, default=None)
    parser.add_argument("--interval", type=int, default=None,
                        help="reconfiguration interval in cycles")
    parser.add_argument("--sampling-ratio", type=int, default=None,
                        dest="sampling_ratio")
    _add_scale_args(parser)


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    """Core count and retention, plus the ESTEEM knobs and scale."""
    parser.add_argument("--cores", type=int, default=1, choices=(1, 2))
    parser.add_argument("--retention", type=float, default=50.0,
                        help="retention period in microseconds")
    _add_esteem_args(parser)


def _add_techniques(parser: argparse.ArgumentParser) -> None:
    """``-t``, for ``run`` and ``sweep``: each use adds techniques.  The
    default is filled in after parsing, as argparse extends a default
    list instead of replacing it."""
    parser.add_argument("-t", "--technique", action="extend", nargs="+",
                        default=None, choices=TECHNIQUES,
                        help="techniques to run (default: esteem rpv)")


def _add_quiet(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress stderr progress output")


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """Workloads, worker count, result cache and ``-q``, for the commands
    that sweep."""
    _add_quiet(parser)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload subset (default: all "
                             "Table 1 workloads for the core count)")
    parser.add_argument("--jobs", type=_positive_int, default=None,
                        help="worker processes (default: the CPU count)")
    parser.add_argument("--cache-dir", default=None, dest="cache_dir",
                        metavar="DIR",
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro/results)")
    parser.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="neither read nor write the sweep result cache")


def _usage_error(message: object) -> NoReturn:
    """Print ``error: message`` on stderr and exit 2, as argparse does."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


#: ESTEEM flag dest -> EsteemConfig field.
_ESTEEM_FIELDS = {
    "alpha": "alpha",
    "a_min": "a_min",
    "modules": "num_modules",
    "interval": "interval_cycles",
    "sampling_ratio": "sampling_ratio",
}


def _build_config(args: argparse.Namespace) -> SimConfig:
    """The configuration the flags describe; a value it rejects (say
    ``--alpha 2`` or ``--retention 0``) is a usage error."""
    overrides = {
        field: getattr(args, dest)
        for dest, field in _ESTEEM_FIELDS.items()
        if getattr(args, dest) is not None
    }
    try:
        cfg = SimConfig.scaled(
            num_cores=args.cores,
            retention_us=args.retention,
            instructions_per_core=args.instructions,
        )
        return cfg.with_esteem(**overrides) if overrides else cfg
    except ValueError as exc:
        _usage_error(exc)


def _workload_config(args: argparse.Namespace) -> SimConfig:
    """:func:`_build_config` for a command that runs one ``--workload``,
    which must resolve under it (else a usage error)."""
    from repro.experiments.runner import profiles_for

    config = _build_config(args)
    try:
        profiles_for(config, args.workload)
    except KeyError as exc:
        _usage_error(exc.args[0])
    return config


def _cmd_list(_args: argparse.Namespace) -> int:
    print("techniques:", ", ".join(TECHNIQUES))
    print("\nsingle-core workloads (Table 1):")
    rows = [
        [b.acronym, b.name, b.suite, f"{b.l2_apki:.1f}",
         b.max_ws_lines, "yes" if b.is_nonlru else "no"]
        for b in ALL_BENCHMARKS
    ]
    print(format_table(
        ["acr", "name", "suite", "L2 APKI", "max WS lines", "non-LRU"], rows
    ))
    print("\ndual-core mixes (Table 1):")
    print(format_table(
        ["acronym", "benchmarks"],
        [[m.acronym, m.name] for m in DUAL_CORE_MIXES],
    ))
    return 0


def _workloads(args: argparse.Namespace, cores: int) -> list[str]:
    """``--workloads``, else every Table 1 workload for ``cores``.  A
    workload named twice runs once, in first-mention order."""
    if args.workloads:
        return list(dict.fromkeys(args.workloads.split(",")))
    if cores == 1:
        return [b.name for b in ALL_BENCHMARKS]
    return [m.acronym for m in DUAL_CORE_MIXES]


def _result_cache(args: argparse.Namespace):
    """The ResultCache selected by ``--cache-dir``, or None for
    ``--no-cache``."""
    if args.no_cache:
        return None
    from repro.experiments.result_cache import ResultCache, default_cache_dir

    return ResultCache(args.cache_dir or default_cache_dir())


def _run_sweep(
    args: argparse.Namespace,
    label: str,
    config: SimConfig,
    workloads: list[str],
    techniques: tuple[str, ...],
    cache,
    progress: bool = True,
    **options,
):
    """One :func:`resilient_sweep` for ``sweep``, ``figure`` or ``table``:
    ``(result, exit status)``.

    With ``progress``, the sweep reports each unit on stderr under
    ``label``.  A sweep that did not complete names its lost units on
    stderr; its exit status is 3 when some failed, 4 when a signal
    stopped it, else 0.
    ``options`` go to :func:`resilient_sweep` as they are.
    """
    from repro.experiments.parallel import resilient_sweep
    from repro.obs.campaign import CampaignDashboard

    # The dashboard renders live on a TTY and degrades to the classic
    # line-per-unit reporter when stderr is a pipe (CI logs stay diffable).
    reporter = CampaignDashboard(
        0, label=label, enabled=progress and not args.quiet
    )
    result = resilient_sweep(
        config, workloads, techniques, seed=args.seed, jobs=args.jobs,
        progress=reporter, cache=cache, **options,
    )
    if result.skipped:
        print(
            f"SKIPPED: {len(result.skipped)} workload(s) cancelled:",
            file=sys.stderr,
        )
        for s in result.skipped:
            print(f"  {s.workload}: skipped-interrupt", file=sys.stderr)
    if result.failed:
        print(
            f"DEGRADED: {len(result.failed)} workload(s) lost after "
            f"{result.attempts} attempts ({result.retries} retries):",
            file=sys.stderr,
        )
        for f in result.failed:
            print(
                f"  {f.workload}: [{f.exc_type}] after {f.attempts} "
                f"attempt(s)",
                file=sys.stderr,
            )
    if result.interrupted:
        # Interrupted wins over degraded: the operator asked the
        # campaign to stop, and the distinct code tells wrappers that a
        # rerun finishes it rather than that the sweep is broken.
        hint = rerun_hint(cache is not None)
        print(f"INTERRUPTED by {result.interrupted}: {hint}", file=sys.stderr)
        return result, 4
    return result, 3 if result.degraded else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import Runner

    runner = Runner(_workload_config(args), seed=args.seed)
    rows = []
    for technique in args.technique:
        if technique == "baseline":
            continue
        c = runner.compare(args.workload, technique)
        rows.append(
            [technique, c.energy_saving_pct, c.weighted_speedup,
             c.fair_speedup, c.rpki_decrease, c.mpki_increase,
             c.active_ratio_pct]
        )
    base = runner.baseline(args.workload)
    print(
        f"workload {args.workload}: baseline IPC="
        + "/".join(f"{ipc:.3f}" for ipc in base.ipcs)
        + f", L2 miss rate {base.l2_miss_rate:.1%}, RPKI {base.rpki:.0f}"
    )
    print(format_table(
        ["technique", "saving %", "WS", "FS", "dRPKI", "dMPKI", "active %"],
        rows,
        title=f"techniques vs periodic-all baseline ({args.workload})",
    ))
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.experiments.figures import fig2_reconfiguration_timeline
    from repro.experiments.runner import Runner

    runner = Runner(_workload_config(args), seed=args.seed)
    _result, points = fig2_reconfiguration_timeline(runner, args.workload)
    rows = [
        [p.interval, p.active_ratio_pct, " ".join(map(str, p.ways_per_module))]
        for p in points
    ]
    print(format_table(
        ["interval", "active %", "ways per module"], rows,
        title=f"Figure 2: ESTEEM reconfiguration of {args.workload}",
    ))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    """Figures 3-6: one sweep at the figure's own core count and
    retention (parser defaults, not flags), ESTEEM knobs on top."""
    from repro.experiments.runner import aggregate

    result, code = _run_sweep(
        args, f"figure {args.number}", _build_config(args),
        _workloads(args, args.cores), ("esteem", "rpv"), _result_cache(args),
    )
    if code:
        return code
    raw = result.comparisons
    table = [
        [es.workload, es.energy_saving_pct, rpv.energy_saving_pct,
         es.weighted_speedup, rpv.weighted_speedup]
        for es, rpv in zip(raw["esteem"], raw["rpv"])
    ]
    es, rpv = aggregate(raw["esteem"]), aggregate(raw["rpv"])
    table.append(["AVERAGE", es.energy_saving_pct, rpv.energy_saving_pct,
                  es.weighted_speedup, rpv.weighted_speedup])
    print(format_table(
        ["workload", "ES sav%", "RPV sav%", "ES WS", "RPV WS"],
        table,
        title=f"Figure {args.number}: {args.cores}-core, "
              f"{args.retention:.0f}us retention",
    ))
    if args.csv:
        from repro.experiments.export import write_comparisons_csv

        path = write_comparisons_csv(raw["esteem"] + raw["rpv"], args.csv)
        print(f"CSV written to {path}")
    return 0


def _cmd_table2(_args: argparse.Namespace) -> int:
    from repro.energy.params import EDRAM_ENERGY_TABLE

    rows = [
        [f"{size // (1024 * 1024)} MB", dyn * 1e9, leak]
        for size, (dyn, leak) in sorted(EDRAM_ENERGY_TABLE.items())
    ]
    print(format_table(
        ["size", "E_dyn (nJ/access)", "P_leak (W)"], rows,
        float_digits=3, title="Table 2: 16-way eDRAM cache energy values",
    ))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    """Table 3: one sweep per sensitivity row."""
    from repro.experiments.runner import aggregate
    from repro.experiments.tables import SENSITIVITY_VARIANTS
    from repro.obs.campaign import ProgressReporter

    cores = 1 if args.system == "single" else 2
    config = SimConfig.scaled(
        num_cores=cores, instructions_per_core=args.instructions
    )
    workloads = _workloads(args, cores)
    cache = _result_cache(args)
    variants = SENSITIVITY_VARIANTS[args.system]
    reporter = ProgressReporter(
        len(variants), label=f"table3-{args.system}", enabled=not args.quiet
    )
    rows = []
    # One sweep per row: a variant may change the L2 geometry, and every
    # unit of a sweep shares one config.
    for variant in variants:
        result, code = _run_sweep(
            args, f"table3:{variant.label}", variant.apply(config),
            workloads, ("esteem",), cache, progress=False,
        )
        if code:
            return code
        agg = aggregate(result.comparisons["esteem"])
        rows.append(
            [variant.label, agg.energy_saving_pct, agg.weighted_speedup,
             agg.rpki_decrease, agg.mpki_increase, agg.active_ratio_pct]
        )
        reporter.advance(variant.label)
    print(format_table(
        ["row", "saving %", "WS", "dRPKI", "dMPKI", "active %"], rows,
        title=f"Table 3 ({args.system}-core)",
    ))
    return 0


def _load_plan(args: argparse.Namespace):
    """The FaultPlan named by ``--inject``, or None.

    Raises ``SystemExit(2)`` with a stderr message on an unreadable or
    invalid plan file (a usage error, not a crash).
    """
    path = getattr(args, "inject", None)
    if not path:
        return None
    from repro.faults import FaultPlan

    try:
        return FaultPlan.load(path)
    except ValueError as exc:
        _usage_error(exc)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one (workload, technique) pair and dump its event trace."""
    from repro.experiments.runner import Runner
    from repro.obs import Tracer

    config = _workload_config(args)
    tracer = Tracer(capacity=args.capacity)
    runner = Runner(
        config,
        seed=args.seed,
        tracer=tracer,
        fault_plan=_load_plan(args),
    )
    result = runner.run(args.workload, args.technique)

    if args.format == "jsonl":
        text = tracer.to_jsonl() + ("\n" if len(tracer) else "")
    else:
        text = tracer.format_pretty()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(
                f"{len(tracer)} events written to {args.output}",
                file=sys.stderr,
            )
    else:
        sys.stdout.write(text)

    if not args.quiet:
        tally = ", ".join(
            f"{t}={n}" for t, n in sorted(tracer.tally().items())
        )
        dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
        print(
            f"trace: workload={args.workload} technique={args.technique} "
            f"intervals={result.intervals} events={len(tracer)}"
            f"{dropped} ({tally})",
            file=sys.stderr,
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Resilient multi-workload sweep: timeouts, retries, result cache.

    Exit status: 0 for a complete sweep, 2 for a bad flag, 3 for a
    *degraded* one (some workloads failed or exhausted their retries;
    surviving results were still reported and cached), 4 for an
    *interrupted* one (SIGINT/SIGTERM; the same command again finishes
    the rest bit-for-bit, its finished units served from the result
    cache).  A signal is the one early stop: ``timeout --preserve-status
    S repro sweep ...`` bounds a campaign's wall time.
    """
    from repro.experiments.runner import aggregate

    config = _build_config(args)
    workloads = _workloads(args, config.num_cores)
    plan = _load_plan(args)
    cache = _result_cache(args)
    result, code = _run_sweep(
        args, "sweep", config, workloads, tuple(args.technique), cache,
        timeout_s=args.timeout,
        retries=args.retries,
        checkpoint=args.checkpoint,
        plan=plan,
    )

    rows = []
    for technique, comps in result.comparisons.items():
        if not comps:
            continue
        agg = aggregate(comps)
        rows.append(
            [technique, agg.workloads, agg.energy_saving_pct,
             agg.weighted_speedup, agg.rpki_decrease, agg.mpki_increase,
             agg.active_ratio_pct]
        )
    if rows:
        print(format_table(
            ["technique", "n", "saving %", "WS", "dRPKI", "dMPKI", "active %"],
            rows,
            title=f"sweep: {len(result.completed)}/{len(workloads)} workloads"
                  + (f" ({len(result.cached)} cached)" if result.cached else ""),
        ))
    if args.csv:
        from repro.experiments.export import write_comparisons_csv

        all_comps = [c for comps in result.comparisons.values() for c in comps]
        path = write_comparisons_csv(all_comps, args.csv)
        print(f"CSV written to {path}")
    if args.manifest:
        from repro.experiments.report import build_manifest
        from repro.util import atomic_write_json

        manifest = build_manifest(
            result, config, workloads, tuple(args.technique),
            seed=args.seed, plan=plan, cache=cache,
        )
        atomic_write_json(args.manifest, manifest)
        print(f"manifest written to {args.manifest}")
    if code:
        return code
    if not args.quiet:
        print(
            f"sweep complete: {len(result.completed)} workload(s), "
            f"{result.attempts} attempt(s), {result.retries} retried",
            file=sys.stderr,
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render a run manifest as markdown/CSV and optionally check it.

    Exit status: 2 for an unreadable or schema-invalid manifest, 1 when
    ``--check`` finds an internal inconsistency, 0 otherwise.
    """
    import json
    from pathlib import Path

    from repro.experiments.report import (
        check_consistency,
        render_csv,
        render_markdown,
        validate_manifest,
    )

    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    schema_errors = validate_manifest(manifest)
    if schema_errors:
        for err in schema_errors:
            print(f"error: schema: {err}", file=sys.stderr)
        return 2

    consistency = check_consistency(manifest) if args.check else None

    if args.format == "csv":
        text = render_csv(manifest)
    else:
        text = render_markdown(manifest, consistency=consistency)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.quiet:
            print(f"report written to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)

    if args.check:
        for msg in consistency:
            print(f"INCONSISTENT: {msg}", file=sys.stderr)
        if consistency:
            return 1
        if not args.quiet:
            print("check ok", file=sys.stderr)
    return 0


def _cmd_overhead(args: argparse.Namespace) -> int:
    from repro.energy.model import counter_overhead_percent

    pct = counter_overhead_percent(args.sets, args.ways, args.modules)
    print(
        f"Eq. 1 overhead for S={args.sets}, A={args.ways}, "
        f"M={args.modules}: {pct:.4f}% of L2 capacity"
    )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.workloads.profiles import get_profile
    from repro.workloads.synthetic import generate_trace

    profile = get_profile(args.workload)
    trace = generate_trace(profile, args.instructions, seed=args.seed)
    import collections

    gaps = trace.gaps
    reuse = collections.Counter()
    last_seen: dict[int, int] = {}
    distinct_between = 0
    for i, addr in enumerate(trace.addrs):
        prev = last_seen.get(addr)
        if prev is None:
            reuse["cold"] += 1
        else:
            d = i - prev
            if d <= 8:
                reuse["<=8"] += 1
            elif d <= 64:
                reuse["<=64"] += 1
            elif d <= 4096:
                reuse["<=4096"] += 1
            else:
                reuse[">4096"] += 1
        last_seen[addr] = i
    rows = [
        ["records", len(trace)],
        ["instructions", trace.instructions],
        ["L2 APKI", f"{len(trace) / trace.instructions * 1000:.2f}"],
        ["distinct lines", trace.distinct_lines()],
        ["footprint (paper scale)", trace.footprint_lines],
        ["write fraction", f"{trace.write_fraction:.3f}"],
        ["mean gap", f"{sum(gaps) / len(gaps):.1f}"],
        ["base CPI", trace.base_cpi],
        ["memory-level parallelism", trace.mem_mlp],
    ]
    for bucket in ("cold", "<=8", "<=64", "<=4096", ">4096"):
        rows.append(
            [f"reuse distance {bucket}",
             f"{reuse.get(bucket, 0) / len(trace):.1%}"]
        )
    print(format_table(["statistic", "value"], rows,
                       title=f"trace statistics: {args.workload}"))
    if args.save:
        trace.save(args.save)
        print(f"trace written to {args.save}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser that takes no flag prefixes: ``--check`` is not
    ``--checkpoint``.  Subparsers are built from the parent's class, so
    every subcommand and figure or table number inherits the rule."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("allow_abbrev", False)
        super().__init__(*args, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for shell-completion tools)."""
    parser = _Parser(
        prog="repro",
        description="ESTEEM (HPDC'14) reproduction command-line interface",
    )
    # Each subcommand, and each figure and table number, names its
    # handler and registers only the flags that handler reads.
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list workloads, mixes and techniques"
    ).set_defaults(handler=_cmd_list)

    run = sub.add_parser("run", help="run techniques on one workload")
    run.add_argument("-w", "--workload", required=True,
                     help="benchmark name/acronym, or mix acronym with --cores 2")
    _add_techniques(run)
    _add_machine_args(run)
    run.set_defaults(handler=_cmd_run)

    figures = sub.add_parser(
        "figure", help="regenerate a paper figure"
    ).add_subparsers(dest="number", required=True, metavar="NUMBER")
    fig2 = figures.add_parser(
        "2", help="ESTEEM's reconfiguration timeline of one workload"
    )
    fig2.add_argument("--workload", default="h264ref")
    _add_machine_args(fig2)
    fig2.set_defaults(handler=_cmd_figure2)
    for number, cores, retention in (
        ("3", 1, 50.0), ("4", 2, 50.0), ("5", 1, 40.0), ("6", 2, 40.0)
    ):
        fig = figures.add_parser(
            number, help=f"ESTEEM vs RPV, {cores}-core, {retention:g}us "
                         f"retention, per workload",
        )
        fig.add_argument("--csv", default=None,
                         help="also write per-workload comparisons as CSV")
        _add_esteem_args(fig)
        _add_sweep_args(fig)
        fig.set_defaults(handler=_cmd_figure, cores=cores, retention=retention)

    tables = sub.add_parser(
        "table", help="regenerate a paper table"
    ).add_subparsers(dest="number", required=True, metavar="NUMBER")
    tables.add_parser(
        "2", help="eDRAM cache energy values"
    ).set_defaults(handler=_cmd_table2)
    tab3 = tables.add_parser("3", help="ESTEEM's parameter sensitivity")
    tab3.add_argument("--system", choices=("single", "dual"), default="single")
    _add_scale_args(tab3)
    _add_sweep_args(tab3)
    tab3.set_defaults(handler=_cmd_table)

    trc = sub.add_parser(
        "trace",
        help="run one (workload, technique) pair and dump the event trace",
    )
    trc.add_argument("-w", "--workload", required=True,
                     help="benchmark name/acronym, or mix acronym with --cores 2")
    trc.add_argument("-t", "--technique", default="esteem",
                     choices=[t for t in TECHNIQUES])
    trc.add_argument("--format", choices=("jsonl", "pretty"), default="jsonl",
                     help="event dump format (default: jsonl)")
    trc.add_argument("--output", default=None,
                     help="write the trace to a file instead of stdout")
    trc.add_argument("--capacity", type=_positive_int, default=65_536,
                     help="event ring-buffer capacity")
    _add_machine_args(trc)
    _add_quiet(trc)
    trc.add_argument("--inject", default=None, metavar="PLAN.json",
                     help="fault plan whose hardware faults are injected "
                          "(events show up as fault.inject in the trace)")
    # Default to the quick bench scale so the emitted interval-decision
    # sequence matches benchmarks/results/fig2_reconfig_timeline.txt.
    trc.set_defaults(handler=_cmd_trace, instructions=4_000_000)

    swp = sub.add_parser(
        "sweep",
        help="resilient multi-workload sweep with timeouts, retries and a "
             "result cache",
    )
    _add_techniques(swp)
    swp.add_argument("--timeout", type=_positive_float, default=None,
                     help="per-attempt wall-clock timeout in seconds "
                          "(hung workers are terminated and retried)")
    swp.add_argument("--retries", type=_non_negative_int, default=2,
                     help="retry budget per workload for transient "
                          "failures (default: 2)")
    swp.add_argument("--checkpoint", default=None, metavar="FILE.jsonl",
                     help="log each finished workload's results to this "
                          "JSONL file, started afresh")
    swp.add_argument("--inject", default=None, metavar="PLAN.json",
                     help="fault plan: hardware faults for every run, "
                          "chaos actions for the workers")
    swp.add_argument("--csv", default=None,
                     help="write surviving comparisons as CSV")
    swp.add_argument("--manifest", default=None, metavar="FILE.json",
                     help="write the structured run manifest as JSON "
                          "(input for `repro report`)")
    _add_machine_args(swp)
    _add_sweep_args(swp)
    swp.set_defaults(handler=_cmd_sweep)

    rep = sub.add_parser(
        "report",
        help="render a sweep run manifest as markdown/CSV, with an optional "
             "consistency check",
    )
    rep.add_argument("manifest", metavar="MANIFEST.json",
                     help="run manifest written by `repro sweep --manifest`")
    rep.add_argument("--format", choices=("md", "csv"), default="md",
                     help="output format (default: md)")
    rep.add_argument("--output", default=None,
                     help="write the report to a file instead of stdout")
    rep.add_argument("--check", action="store_true",
                     help="verify the manifest's internal consistency (merged "
                          "campaign counters equal the sum of the per-unit "
                          "truths); exit 1 on failure")
    rep.add_argument("-q", "--quiet", action="store_true",
                     help="suppress stderr status output")
    rep.set_defaults(handler=_cmd_report)

    ovh = sub.add_parser("overhead", help="evaluate Eq. 1 counter overhead")
    ovh.add_argument("--sets", type=_positive_int, default=4096)
    ovh.add_argument("--ways", type=_positive_int, default=16)
    ovh.add_argument("--modules", type=_positive_int, default=16)
    ovh.set_defaults(handler=_cmd_overhead)

    ts = sub.add_parser(
        "trace-stats", help="generate a workload trace and characterise it"
    )
    ts.add_argument("-w", "--workload", required=True)
    ts.add_argument("--instructions", type=_positive_int, default=4_000_000)
    ts.add_argument("--seed", type=int, default=0)
    ts.add_argument("--save", default=None,
                    help="also write the trace as a .npz file")
    ts.set_defaults(handler=_cmd_trace_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if hasattr(args, "technique") and not isinstance(args.technique, str):
        # ``run`` and ``sweep``: the default applies only without ``-t``,
        # and a technique named twice runs once, in first-mention order.
        techniques = args.technique or ["esteem", "rpv"]
        args.technique = list(dict.fromkeys(techniques))
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
