"""Run manifests, campaign reports and bench-regression checks.

Three layers on top of the plain-text table renderer the benches already
use:

* :func:`build_manifest` turns a finished
  :class:`~repro.experiments.parallel.SweepResult` into the structured
  *run manifest*: everything ``SweepResult.manifest()`` records
  (completion/failure/attempt bookkeeping, the per-attempt timeline, the
  merged campaign telemetry) plus the input closure (config fields,
  workloads, techniques, seed, fault plan), a
  :func:`~repro.util.stable_fingerprint` over that closure, per-technique
  paper-metric aggregates, the campaign's effective simulation rates, and
  the result cache's probe statistics.
* :func:`validate_manifest` checks a manifest against
  :data:`MANIFEST_SCHEMA` -- a hand-rolled subset of JSON Schema
  (``type``/``required``/``properties``/``items``/``enum``), so CI can
  validate without any third-party dependency.  :func:`check_consistency`
  goes further than shape: the merged campaign counters must equal the
  sum of the per-unit truths.
* :func:`render_markdown` / :func:`render_csv` are the ``repro report``
  output formats, and :func:`check_regressions` compares a manifest's
  rates against the committed ``BENCH_throughput.json`` /
  ``BENCH_sweep.json`` baselines.  Checks only engage when the manifest
  ran at comparable scale (small smoke sweeps report ``skipped
  (scale)`` instead of meaningless failures).
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "build_manifest",
    "check_consistency",
    "check_regressions",
    "format_table",
    "format_value",
    "render_csv",
    "render_markdown",
    "rerun_hint",
    "validate_manifest",
]


def format_value(value: Any, float_digits: int = 2) -> str:
    """Render one cell."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{float_digits}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    float_digits: int = 2,
    title: str | None = None,
) -> str:
    """Render an aligned text table with a header rule.

    >>> print(format_table(["a", "b"], [[1, 2.5]]))
    a  b
    -  ----
    1  2.50
    """
    rendered = [[format_value(v, float_digits) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------

MANIFEST_KIND = "repro-sweep-manifest"
#: v2 added the ``skipped`` / ``interrupted`` keys and the skip timeline
#: outcomes.  v3 dropped the poison-unit list.  v4 dropped the constant
#: executor block, the deadline and the skip reason: a signal is the one
#: way a unit is skipped.
MANIFEST_VERSION = 4


def build_manifest(
    result: Any,
    config: Any,
    workloads: Sequence[str],
    techniques: Sequence[str],
    seed: int = 0,
    plan: Any = None,
    cache: Any = None,
    checkpoint: Any = None,
) -> dict[str, Any]:
    """The structured run manifest for one finished resilient sweep.

    Extends ``result.manifest()`` (whose keys are all preserved) with the
    sweep's input closure and its fingerprint, per-technique paper-metric
    aggregates, campaign-level simulation rates derived from the merged
    worker telemetry, the result cache's probe statistics and the
    checkpoint path (``None`` without one).  The
    output is pure JSON (``atomic_write_json``-able) and deterministic
    apart from the measured wall times.
    """
    from repro.config import config_fields
    from repro.experiments.runner import technique_rollup
    from repro.timing.result import SIM_ENGINE_VERSION
    from repro.util import stable_fingerprint

    manifest: dict[str, Any] = dict(result.manifest())
    fields = {k: v for k, v in sorted(config_fields(config).items())}
    plan_dict = plan.as_dict() if plan is not None else None
    closure = {
        "engine": SIM_ENGINE_VERSION,
        "config": fields,
        "workloads": list(workloads),
        "techniques": list(techniques),
        "seed": seed,
        "plan": plan_dict,
    }
    manifest.update(
        {
            "kind": MANIFEST_KIND,
            "manifest_version": MANIFEST_VERSION,
            "engine_version": SIM_ENGINE_VERSION,
            "fingerprint": stable_fingerprint(closure, length=64),
            "config": fields,
            "workloads": list(workloads),
            "techniques": list(techniques),
            "seed": seed,
            "plan": plan_dict,
        }
    )

    all_comparisons = [
        c for comps in result.comparisons.values() for c in comps
    ]
    manifest["aggregates"] = technique_rollup(all_comparisons)

    telemetry = manifest.get("telemetry", {})
    counters = telemetry.get("counters", {})
    instructions = counters.get("sim.instructions", 0.0)
    wall_s = manifest.get("wall_s", 0.0)
    per_technique_bench: dict[str, dict[str, float]] = {}
    for name, entry in sorted(telemetry.get("per_technique", {}).items()):
        tech_wall = float(entry.get("wall_s", 0.0))
        tech_instr = float(entry.get("counters", {}).get("sim.instructions", 0.0))
        per_technique_bench[name] = {
            "wall_s": tech_wall,
            "instructions": tech_instr,
            "minstr_per_s": (
                tech_instr / tech_wall / 1e6 if tech_wall > 0 else 0.0
            ),
        }
    clean = (
        not manifest.get("degraded", False)
        and manifest.get("retries", 0) == 0
        and not manifest.get("cached")
        and not telemetry.get("lost")
    )
    manifest["bench"] = {
        "instructions_per_core": config.instructions_per_core,
        "units": len(result.completed),
        "clean": clean,
        "sweep_s": wall_s,
        "sim_minstr_per_s": (
            instructions / wall_s / 1e6 if wall_s > 0 else 0.0
        ),
        "per_technique": per_technique_bench,
    }
    manifest["result_cache"] = cache.stats() if cache is not None else None
    manifest["checkpoint"] = None if checkpoint is None else str(checkpoint)
    return manifest


def rerun_hint(checkpoint: bool, cache: bool) -> str:
    """How to finish the units an interrupted sweep skipped: ``--resume``
    needs the sweep's checkpoint; without one, the same command again."""
    if checkpoint:
        return "rerun with --resume to finish the skipped units"
    hint = "rerun the same command to finish the skipped units"
    if cache:
        hint += "; finished units come back from the result cache"
    return hint


# ----------------------------------------------------------------------
# Schema validation (hand-rolled JSON Schema subset -- no dependency)
# ----------------------------------------------------------------------

_TELEMETRY_SECTION = {
    "type": "object",
    "required": [
        "counters", "histograms", "per_technique", "per_unit", "lost",
        "rollup",
    ],
    "properties": {
        "counters": {"type": "object"},
        "histograms": {"type": "object"},
        "per_technique": {"type": "object"},
        "per_unit": {"type": "object"},
        "lost": {"type": "array", "items": {"type": "string"}},
        "rollup": {"type": "object"},
    },
}

#: Shape of a run manifest, expressed in the JSON Schema subset that
#: :func:`validate_manifest` implements (``type`` / ``required`` /
#: ``properties`` / ``items`` / ``enum``).  ``schemas/manifest.schema.json``
#: is the checked-in copy CI validates against; a test pins the two equal.
MANIFEST_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "kind", "manifest_version", "engine_version", "fingerprint",
        "config", "workloads", "techniques", "seed", "plan",
        "degraded", "completed", "resumed", "cached", "attempts",
        "retries", "workers_spawned", "workers_recycled", "wall_s",
        "timeline", "telemetry", "failed", "skipped",
        "interrupted", "aggregates", "bench",
        "result_cache",
    ],
    "properties": {
        "kind": {"enum": [MANIFEST_KIND]},
        "manifest_version": {"enum": [MANIFEST_VERSION]},
        "engine_version": {"type": "integer"},
        "fingerprint": {"type": "string"},
        "config": {"type": "object"},
        "workloads": {"type": "array", "items": {"type": "string"}},
        "techniques": {"type": "array", "items": {"type": "string"}},
        "seed": {"type": "integer"},
        "plan": {"type": ["object", "null"]},
        "degraded": {"type": "boolean"},
        "completed": {"type": "array", "items": {"type": "string"}},
        "resumed": {"type": "array", "items": {"type": "string"}},
        "cached": {"type": "array", "items": {"type": "string"}},
        "attempts": {"type": "integer"},
        "retries": {"type": "integer"},
        "workers_spawned": {"type": "integer"},
        "workers_recycled": {"type": "integer"},
        "wall_s": {"type": "number"},
        "timeline": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "workload", "attempt", "outcome", "exc_type",
                    "start_s", "end_s", "wall_s", "telemetry",
                ],
                "properties": {
                    "workload": {"type": "string"},
                    "attempt": {"type": "integer"},
                    "outcome": {
                        "enum": [
                            "ok", "retry", "failed", "cached", "resumed",
                            "skipped-interrupt",
                        ],
                    },
                    "exc_type": {"type": "string"},
                    "start_s": {"type": "number"},
                    "end_s": {"type": "number"},
                    "wall_s": {"type": "number"},
                    "telemetry": {
                        "enum": ["ok", "partial", "lost", "none"],
                    },
                },
            },
        },
        "telemetry": _TELEMETRY_SECTION,
        "failed": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "workload", "attempts", "exc_type", "detail",
                    "telemetry",
                ],
                "properties": {
                    "workload": {"type": "string"},
                    "attempts": {"type": "integer"},
                    "exc_type": {"type": "string"},
                    "detail": {"type": "string"},
                    "telemetry": {"enum": ["ok", "partial", "lost"]},
                },
            },
        },
        "skipped": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["workload", "attempts"],
                "properties": {
                    "workload": {"type": "string"},
                    "attempts": {"type": "integer"},
                },
            },
        },
        "interrupted": {"type": ["string", "null"]},
        "aggregates": {"type": "object"},
        "bench": {
            "type": "object",
            "required": [
                "instructions_per_core", "units", "clean", "sweep_s",
                "sim_minstr_per_s", "per_technique",
            ],
            "properties": {
                "instructions_per_core": {"type": "integer"},
                "units": {"type": "integer"},
                "clean": {"type": "boolean"},
                "sweep_s": {"type": "number"},
                "sim_minstr_per_s": {"type": "number"},
                "per_technique": {"type": "object"},
            },
        },
        "result_cache": {"type": ["object", "null"]},
        "checkpoint": {"type": ["string", "null"]},
    },
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
    ),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(value: Any, schema: Mapping[str, Any], path: str,
              errors: list[str]) -> None:
    if "enum" in schema:
        if value not in schema["enum"]:
            errors.append(f"{path}: {value!r} not in {schema['enum']!r}")
        return
    declared = schema.get("type")
    if declared is not None:
        types = declared if isinstance(declared, list) else [declared]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(
                f"{path}: expected {'/'.join(types)}, "
                f"got {type(value).__name__}"
            )
            return
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate(value[key], sub, f"{path}.{key}", errors)
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]", errors)


def validate_manifest(
    manifest: Any, schema: Mapping[str, Any] | None = None
) -> list[str]:
    """Schema errors for a manifest (empty list means it validates)."""
    errors: list[str] = []
    _validate(
        manifest,
        schema if schema is not None else MANIFEST_SCHEMA,
        "manifest",
        errors,
    )
    return errors


# ----------------------------------------------------------------------
# Consistency: merged campaign totals vs per-unit truths
# ----------------------------------------------------------------------

def check_consistency(manifest: Mapping[str, Any]) -> list[str]:
    """Internal-consistency failures of a manifest (empty list = sound).

    The campaign counters in ``telemetry.counters`` must equal the sum
    of the per-unit snapshots exactly for integer-valued counters
    (records, hits, faults, retries never lose precision under float
    addition below 2**53) and to 1e-9 relative tolerance for genuinely
    fractional ones (energy, seconds).  Histogram counts, the rollup's
    unit tally and the attempt/timeline bookkeeping are cross-checked
    the same way.
    """
    failures: list[str] = []
    telemetry = manifest.get("telemetry", {})
    merged = telemetry.get("counters", {})
    per_unit = telemetry.get("per_unit", {})

    summed: dict[str, float] = {}
    integral: dict[str, bool] = {}
    for unit_entry in per_unit.values():
        for name, value in unit_entry.get("counters", {}).items():
            summed[name] = summed.get(name, 0.0) + value
            integral[name] = (
                integral.get(name, True) and float(value).is_integer()
            )
    for name in sorted(set(merged) | set(summed)):
        total, expect = merged.get(name, 0.0), summed.get(name, 0.0)
        if integral.get(name, False):
            ok = total == expect
        else:
            ok = math.isclose(total, expect, rel_tol=1e-9, abs_tol=1e-12)
        if not ok:
            failures.append(
                f"counter {name}: merged {total!r} != per-unit sum {expect!r}"
            )

    for name, state in telemetry.get("histograms", {}).items():
        expect_count = sum(
            u.get("histograms", {}).get(name, {}).get("count", 0)
            for u in per_unit.values()
        )
        if state.get("count", 0) != expect_count:
            failures.append(
                f"histogram {name}: merged count {state.get('count')} != "
                f"per-unit sum {expect_count}"
            )

    rollup = telemetry.get("rollup", {})
    if rollup.get("units_merged") != len(per_unit):
        failures.append(
            f"rollup.units_merged {rollup.get('units_merged')} != "
            f"{len(per_unit)} per-unit entries"
        )

    timeline = manifest.get("timeline", [])
    # One timeline record per dispatched attempt: its terminal outcome,
    # or its cancellation when an interrupt pulled it in flight (marked
    # ``in_flight``).
    attempt_entries = [
        t
        for t in timeline
        if t.get("outcome") in ("ok", "retry", "failed")
        or (
            str(t.get("outcome", "")).startswith("skipped-")
            and t.get("in_flight")
        )
    ]
    if manifest.get("attempts") != len(attempt_entries):
        failures.append(
            f"attempts {manifest.get('attempts')} != {len(attempt_entries)} "
            f"attempt records in the timeline"
        )
    retry_entries = [t for t in timeline if t.get("outcome") == "retry"]
    if manifest.get("retries") != len(retry_entries):
        failures.append(
            f"retries {manifest.get('retries')} != {len(retry_entries)} "
            f"retry records in the timeline"
        )
    completed = set(manifest.get("completed", []))
    for entry in manifest.get("failed", []):
        if entry.get("workload") in completed:
            failures.append(
                f"workload {entry.get('workload')} is both completed and "
                f"failed"
            )
    for entry in manifest.get("skipped", []):
        if entry.get("workload") in completed:
            failures.append(
                f"workload {entry.get('workload')} is both completed "
                f"and skipped"
            )
    return failures


# ----------------------------------------------------------------------
# Bench-regression detection
# ----------------------------------------------------------------------

def check_regressions(
    manifest: Mapping[str, Any],
    throughput_baseline: Mapping[str, Any] | None = None,
    sweep_baseline: Mapping[str, Any] | None = None,
    tolerance: float = 0.10,
) -> tuple[list[str], list[str], list[str]]:
    """Compare manifest rates to the committed BENCH baselines.

    Returns ``(failures, skipped, passed)`` message lists.  A check only
    engages when the manifest ran at comparable scale to the baseline
    measurement -- at least half the baseline's per-core instruction
    budget for the per-technique rate check, plus a *clean* sweep (no
    degradation, retries or cache hits) of at least half the baseline's
    unit count for the whole-sweep rate check.  Out-of-scale checks land
    in ``skipped`` so a smoke sweep reports "skipped (scale)" rather
    than a meaningless pass or fail.
    """
    failures: list[str] = []
    skipped: list[str] = []
    passed: list[str] = []
    bench = manifest.get("bench", {})
    scale = bench.get("instructions_per_core", 0)

    if throughput_baseline is not None:
        base = throughput_baseline.get(
            "bench_end_to_end_simulation_rate", throughput_baseline
        )
        base_scale = base.get("instructions", 0)
        if scale < 0.5 * base_scale:
            skipped.append(
                f"per-technique rate: skipped (scale): manifest ran "
                f"{scale:,} instructions/core, baseline measured at "
                f"{base_scale:,}"
            )
        else:
            current = bench.get("per_technique", {})
            for tech in sorted(set(current) & set(base.get("techniques", {}))):
                cur = current[tech].get("minstr_per_s", 0.0)
                ref = base["techniques"][tech].get("minstr_per_s", 0.0)
                floor = ref * (1.0 - tolerance)
                msg = (
                    f"technique {tech}: {cur:.1f} Minstr/s vs baseline "
                    f"{ref:.1f} (floor {floor:.1f})"
                )
                (failures if cur < floor else passed).append(msg)

    if sweep_baseline is not None:
        base = sweep_baseline.get("bench_sweep_throughput", sweep_baseline)
        base_scale = base.get("instructions", 0)
        base_units = base.get("workloads", 0)
        units = bench.get("units", 0)
        reasons = []
        if not bench.get("clean", False):
            reasons.append("sweep not clean (degraded/retried/cached)")
        if units < 0.5 * base_units:
            reasons.append(
                f"{units} units vs baseline {base_units}"
            )
        if scale < 0.5 * base_scale:
            reasons.append(
                f"{scale:,} instructions/core vs baseline {base_scale:,}"
            )
        if reasons:
            skipped.append(
                "sweep rate: skipped (scale): " + "; ".join(reasons)
            )
        else:
            # The sweep bench records per-unit work as instructions x
            # (techniques + the baseline run each unit also simulates).
            runs_per_unit = len(base.get("techniques", [])) + 1
            pool_s = base.get("pool_seconds", 0.0)
            ref = (
                base_scale * base_units * runs_per_unit / pool_s / 1e6
                if pool_s > 0
                else 0.0
            )
            cur = bench.get("sim_minstr_per_s", 0.0)
            floor = ref * (1.0 - tolerance)
            msg = (
                f"sweep rate: {cur:.1f} Minstr/s vs baseline {ref:.1f} "
                f"(floor {floor:.1f})"
            )
            (failures if cur < floor else passed).append(msg)
    return failures, skipped, passed


# ----------------------------------------------------------------------
# repro report renderers
# ----------------------------------------------------------------------

def _md_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
              float_digits: int = 2) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        cells = [format_value(v, float_digits) for v in row]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _aggregate_rows(manifest: Mapping[str, Any]) -> list[list[Any]]:
    rows = []
    for tech, agg in sorted(manifest.get("aggregates", {}).items()):
        rows.append(
            [
                tech,
                agg.get("workloads", 0),
                agg.get("energy_saving_pct", 0.0),
                agg.get("weighted_speedup", 0.0),
                agg.get("fair_speedup", 0.0),
                agg.get("rpki_decrease", 0.0),
                agg.get("mpki_increase", 0.0),
                agg.get("mean_cpi", 0.0),
                agg.get("baseline_cpi", 0.0),
                agg.get("total_energy_j", 0.0),
                agg.get("baseline_energy_j", 0.0),
            ]
        )
    return rows


_AGGREGATE_HEADERS = [
    "technique", "n", "saving %", "WS", "FS", "dRPKI", "dMPKI",
    "CPI", "base CPI", "energy J", "base energy J",
]


def _retry_timeline_rows(manifest: Mapping[str, Any]) -> list[list[Any]]:
    """Attempt history for every unit that was retried, failed or timed
    out -- the retry/backoff timeline."""
    eventful = {
        t.get("workload")
        for t in manifest.get("timeline", [])
        if t.get("outcome")
        in ("retry", "failed", "skipped-interrupt")
    }
    rows = []
    for t in manifest.get("timeline", []):
        if t.get("workload") not in eventful:
            continue
        rows.append(
            [
                t.get("workload"), t.get("attempt"), t.get("outcome"),
                t.get("exc_type") or "-", t.get("start_s"), t.get("end_s"),
                t.get("wall_s"), t.get("telemetry"),
            ]
        )
    return rows


def render_markdown(
    manifest: Mapping[str, Any],
    checks: tuple[list[str], list[str], list[str]] | None = None,
    consistency: list[str] | None = None,
) -> str:
    """The ``repro report`` markdown document for a run manifest."""
    telemetry = manifest.get("telemetry", {})
    rollup = telemetry.get("rollup", {})
    bench = manifest.get("bench", {})
    out: list[str] = []
    out.append("# Sweep report")
    out.append("")
    out.append(
        f"Fingerprint `{manifest.get('fingerprint', '?')}` -- engine "
        f"v{manifest.get('engine_version', '?')}, manifest "
        f"v{manifest.get('manifest_version', '?')}, seed "
        f"{manifest.get('seed', '?')}."
    )
    out.append("")
    out.append("## Summary")
    out.append("")
    out.append(_md_table(
        ["workloads", "completed", "failed", "skipped",
         "cached", "resumed", "attempts", "retries", "recycled",
         "wall s", "degraded"],
        [[
            len(manifest.get("workloads", [])),
            len(manifest.get("completed", [])),
            len(manifest.get("failed", [])),
            len(manifest.get("skipped", [])),
            len(manifest.get("cached", [])),
            len(manifest.get("resumed", [])),
            manifest.get("attempts", 0),
            manifest.get("retries", 0),
            manifest.get("workers_recycled", 0),
            manifest.get("wall_s", 0.0),
            manifest.get("degraded", False),
        ]],
    ))
    if manifest.get("interrupted"):
        out.append("")
        hint = rerun_hint(
            manifest.get("checkpoint") is not None,
            manifest.get("result_cache") is not None,
        )
        out.append(f"**Interrupted by {manifest['interrupted']}** -- {hint}.")
    rows = _aggregate_rows(manifest)
    if rows:
        out.append("")
        out.append("## Per-technique energy / performance")
        out.append("")
        out.append(_md_table(_AGGREGATE_HEADERS, rows, float_digits=3))
    out.append("")
    out.append("## Campaign telemetry")
    out.append("")
    fault_counts = rollup.get("faults", {})
    faults = (
        ", ".join(f"{k}={format_value(v, 0)}"
                  for k, v in sorted(fault_counts.items()))
        if fault_counts else "none"
    )
    out.append(_md_table(
        ["units merged", "runs", "instructions", "records", "L2 hit rate",
         "batch share", "refresh lines", "faults", "lost"],
        [[
            rollup.get("units_merged", 0),
            format_value(rollup.get("runs", 0.0), 0),
            format_value(rollup.get("instructions", 0.0), 0),
            format_value(rollup.get("records", 0.0), 0),
            rollup.get("l2_hit_rate", 0.0),
            rollup.get("kernel_batch_share", 0.0),
            format_value(rollup.get("refresh_lines", 0.0), 0),
            faults,
            ", ".join(telemetry.get("lost", [])) or "none",
        ]],
    ))
    per_tech = bench.get("per_technique", {})
    if per_tech:
        out.append("")
        out.append("## Simulation rates")
        out.append("")
        out.append(
            f"Whole sweep: {format_value(bench.get('sim_minstr_per_s', 0.0))} "
            f"Minstr/s over {format_value(bench.get('sweep_s', 0.0))} s "
            f"({'clean' if bench.get('clean') else 'not clean'})."
        )
        out.append("")
        out.append(_md_table(
            ["technique", "wall s", "instructions", "Minstr/s"],
            [
                [name, e.get("wall_s", 0.0),
                 format_value(e.get("instructions", 0.0), 0),
                 e.get("minstr_per_s", 0.0)]
                for name, e in sorted(per_tech.items())
            ],
        ))
    retry_rows = _retry_timeline_rows(manifest)
    if retry_rows:
        out.append("")
        out.append("## Retry / backoff timeline")
        out.append("")
        out.append(_md_table(
            ["workload", "attempt", "outcome", "exc type", "start s",
             "end s", "wall s", "telemetry"],
            retry_rows,
        ))
    if manifest.get("failed"):
        out.append("")
        out.append("## Failures")
        out.append("")
        out.append(_md_table(
            ["workload", "attempts", "exc type", "telemetry", "detail"],
            [
                [f.get("workload"), f.get("attempts"), f.get("exc_type"),
                 f.get("telemetry"), f.get("detail")]
                for f in manifest.get("failed", [])
            ],
        ))
    if manifest.get("skipped"):
        out.append("")
        out.append("## Skipped (cancelled, not failed)")
        out.append("")
        out.append(_md_table(
            ["workload", "attempts consumed"],
            [
                [s.get("workload"), s.get("attempts")]
                for s in manifest.get("skipped", [])
            ],
        ))
    result_cache = manifest.get("result_cache")
    if result_cache is not None:
        out.append("")
        out.append("## Result cache")
        out.append("")
        out.append(_md_table(
            ["hits", "misses", "stores", "corrupt", "hit rate"],
            [[
                result_cache.get("hits", 0),
                result_cache.get("misses", 0),
                result_cache.get("stores", 0),
                result_cache.get("corrupt", 0),
                result_cache.get("hit_rate", 0.0),
            ]],
        ))
        if result_cache.get("corrupt", 0):
            out.append("")
            out.append(
                f"- warning: {result_cache['corrupt']} cache file(s) were "
                f"corrupt and treated as misses (the units re-ran; "
                f"results are unaffected)."
            )
    if consistency is not None:
        out.append("")
        out.append("## Consistency")
        out.append("")
        if consistency:
            out.extend(f"- FAIL: {msg}" for msg in consistency)
        else:
            out.append(
                "- ok: campaign totals equal the sum of per-unit truths"
            )
    if checks is not None:
        failures, skipped, passed = checks
        out.append("")
        out.append("## Bench regression check")
        out.append("")
        for msg in failures:
            out.append(f"- REGRESSION: {msg}")
        for msg in skipped:
            out.append(f"- {msg}")
        for msg in passed:
            out.append(f"- ok: {msg}")
        if not (failures or skipped or passed):
            out.append("- no baselines supplied")
    out.append("")
    return "\n".join(out)


def render_csv(manifest: Mapping[str, Any]) -> str:
    """Per-technique aggregate + rate rows as CSV (``--format csv``)."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    per_tech = manifest.get("bench", {}).get("per_technique", {})
    writer.writerow(
        [h.replace(" ", "_") for h in _AGGREGATE_HEADERS]
        + ["bench_wall_s", "bench_minstr_per_s"]
    )
    for row in _aggregate_rows(manifest):
        bench_entry = per_tech.get(row[0], {})
        writer.writerow(
            list(row)
            + [bench_entry.get("wall_s", ""),
               bench_entry.get("minstr_per_s", "")]
        )
    return buf.getvalue()
