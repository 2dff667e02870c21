"""Run manifests, campaign reports and manifest consistency checks.

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
* :func:`validate_manifest` checks a manifest against the schema this
  package ships, ``manifest.schema.json`` next to this module, with a
  hand-rolled subset of JSON Schema
  (``type``/``required``/``properties``/``items``/``enum``), so CI can
  validate without any third-party dependency.  :func:`check_consistency`
  goes further than shape: the merged campaign counters must equal the
  sum of the per-unit truths.
* :func:`render_markdown` / :func:`render_csv` are the ``repro report``
  output formats.  A manifest's simulation rates are reported, not
  gated: speed is measured by the end-to-end benchmark
  (``benchmarks/e2e``), which rescales for host speed and compares runs
  in pairs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_VERSION",
    "build_manifest",
    "check_consistency",
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
#: way a unit is skipped.  v5 dropped the list of units read back from a
#: checkpoint, its timeline outcome and the checkpoint path: a rerun over
#: the result cache is the one way to finish a sweep.  v6 dropped the
#: per-attempt and per-failure telemetry labels and the list of units
#: whose telemetry was lost: only finished units carry telemetry.
MANIFEST_VERSION = 6


def build_manifest(
    result: Any,
    config: Any,
    workloads: Sequence[str],
    techniques: Sequence[str],
    seed: int = 0,
    plan: Any = None,
    cache: Any = None,
) -> dict[str, Any]:
    """The structured run manifest for one finished resilient sweep.

    Extends ``result.manifest()`` (whose keys are all preserved) with the
    sweep's input closure and its fingerprint, per-technique paper-metric
    aggregates, campaign-level simulation rates derived from the merged
    worker telemetry and the result cache's probe statistics.  The
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
    return manifest


def rerun_hint(cache: bool) -> str:
    """How to finish the units an interrupted sweep skipped: the same
    command again."""
    hint = "rerun the same command to finish the skipped units"
    if cache:
        hint += "; finished units come back from the result cache"
    return hint


# ----------------------------------------------------------------------
# Schema validation (hand-rolled JSON Schema subset -- no dependency)
# ----------------------------------------------------------------------

#: The manifest's shape, in the JSON Schema subset that
#: :func:`validate_manifest` implements.
_SCHEMA_PATH = Path(__file__).with_name("manifest.schema.json")

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
    """Schema errors for a manifest (empty list means it validates)
    against ``schema``, by default the packaged manifest schema."""
    if schema is None:
        schema = json.loads(_SCHEMA_PATH.read_text(encoding="utf-8"))
    errors: list[str] = []
    _validate(manifest, schema, "manifest", errors)
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
    """Attempt history for every unit that was retried, failed or
    cancelled -- the retry timeline."""
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
                t.get("wall_s"),
            ]
        )
    return rows


def render_markdown(
    manifest: Mapping[str, Any],
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
         "cached", "attempts", "retries", "recycled", "wall s",
         "degraded"],
        [[
            len(manifest.get("workloads", [])),
            len(manifest.get("completed", [])),
            len(manifest.get("failed", [])),
            len(manifest.get("skipped", [])),
            len(manifest.get("cached", [])),
            manifest.get("attempts", 0),
            manifest.get("retries", 0),
            manifest.get("workers_recycled", 0),
            manifest.get("wall_s", 0.0),
            manifest.get("degraded", False),
        ]],
    ))
    if manifest.get("interrupted"):
        out.append("")
        hint = rerun_hint(manifest.get("result_cache") is not None)
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
         "batch share", "refresh lines", "faults"],
        [[
            rollup.get("units_merged", 0),
            format_value(rollup.get("runs", 0.0), 0),
            format_value(rollup.get("instructions", 0.0), 0),
            format_value(rollup.get("records", 0.0), 0),
            rollup.get("l2_hit_rate", 0.0),
            rollup.get("kernel_batch_share", 0.0),
            format_value(rollup.get("refresh_lines", 0.0), 0),
            faults,
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
        out.append("## Retry timeline")
        out.append("")
        out.append(_md_table(
            ["workload", "attempt", "outcome", "exc type", "start s",
             "end s", "wall s"],
            retry_rows,
        ))
    if manifest.get("failed"):
        out.append("")
        out.append("## Failures")
        out.append("")
        out.append(_md_table(
            ["workload", "attempts", "exc type", "detail"],
            [
                [f.get("workload"), f.get("attempts"), f.get("exc_type"),
                 f.get("detail")]
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
