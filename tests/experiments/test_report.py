"""Tests for the table renderer, run manifests and regression checks."""

import copy
import json
from pathlib import Path

import pytest

from repro.config import SimConfig
from repro.experiments.parallel import resilient_sweep
from repro.experiments.report import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    build_manifest,
    check_consistency,
    check_regressions,
    format_table,
    format_value,
    render_csv,
    render_markdown,
    validate_manifest,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = ["gamess", "povray"]
TECHNIQUES = ("esteem",)


@pytest.fixture(scope="module")
def manifest():
    """A real manifest from a tiny two-unit sweep (JSON round-tripped,
    exactly as `repro report` would read it back)."""
    config = SimConfig.scaled(instructions_per_core=30_000)
    result = resilient_sweep(
        config, WORKLOADS, TECHNIQUES, seed=0, jobs=2
    )
    built = build_manifest(
        result, config, WORKLOADS, TECHNIQUES, seed=0
    )
    return json.loads(json.dumps(built))


class TestFormatValue:
    def test_float_digits(self):
        assert format_value(3.14159, 2) == "3.14"
        assert format_value(3.14159, 4) == "3.1416"

    def test_bool(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_int_and_str(self):
        assert format_value(7) == "7"
        assert format_value("x") == "x"


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "v"], [["gamess", 1.5], ["mcf", 10.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "------" in lines[1]
        assert lines[2].startswith("gamess")
        # Columns align: 'v' column starts at the same offset everywhere.
        col = lines[0].index("v")
        assert lines[2][col:].strip() == "1.50"

    def test_title(self):
        out = format_table(["a"], [[1]], title="Table 3")
        assert out.splitlines()[0] == "Table 3"
        assert out.splitlines()[1] == "======="

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        out = format_table(["a", "b"], [])
        assert len(out.splitlines()) == 2


class TestBuildManifest:
    def test_kind_version_and_fingerprint(self, manifest):
        assert manifest["kind"] == MANIFEST_KIND
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert len(manifest["fingerprint"]) == 64

    def test_legacy_sweep_manifest_keys_preserved(self, manifest):
        for key in ("degraded", "completed", "resumed", "cached",
                    "attempts", "retries", "workers_spawned",
                    "workers_recycled", "failed"):
            assert key in manifest
        assert sorted(manifest["completed"]) == sorted(WORKLOADS)
        assert manifest["degraded"] is False

    def test_aggregates_carry_energy_and_cpi(self, manifest):
        agg = manifest["aggregates"]["esteem"]
        assert agg["workloads"] == len(WORKLOADS)
        assert agg["mean_cpi"] > 0
        assert agg["baseline_cpi"] > 0
        assert agg["total_energy_j"] > 0

    def test_bench_rates_derive_from_telemetry(self, manifest):
        bench = manifest["bench"]
        assert bench["instructions_per_core"] == 30_000
        assert bench["units"] == len(WORKLOADS)
        # Baseline + esteem both ran under technique spans.
        assert set(bench["per_technique"]) == {"baseline", "esteem"}
        budget = 30_000 * len(WORKLOADS)
        for entry in bench["per_technique"].values():
            # Runs retire at least the per-core budget (the last simulated
            # interval may overshoot it slightly).
            assert budget <= entry["instructions"] <= budget * 1.1
            assert entry["minstr_per_s"] > 0

    def test_validates_against_schema(self, manifest):
        assert validate_manifest(manifest) == []

    def test_checked_in_schema_file_matches(self):
        disk = json.loads(
            (REPO_ROOT / "schemas" / "manifest.schema.json").read_text()
        )
        assert disk == MANIFEST_SCHEMA

    def test_manifest_is_pure_json(self, manifest):
        json.dumps(manifest)


class TestValidateManifest:
    def test_missing_required_key_reported(self, manifest):
        broken = copy.deepcopy(manifest)
        del broken["fingerprint"]
        errors = validate_manifest(broken)
        assert any("fingerprint" in e for e in errors)

    def test_wrong_enum_reported(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["kind"] = "something-else"
        assert any("kind" in e for e in validate_manifest(broken))

    def test_wrong_type_reported(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["attempts"] = "three"
        assert any("attempts" in e for e in validate_manifest(broken))

    def test_nested_timeline_items_checked(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["timeline"].append({"workload": "x"})
        errors = validate_manifest(broken)
        assert any("timeline" in e and "required" in e for e in errors)

    def test_null_alternative_types_accepted(self, manifest):
        assert manifest["plan"] is None
        assert manifest["result_cache"] is None
        assert validate_manifest(manifest) == []


class TestCheckConsistency:
    def test_sound_manifest_passes(self, manifest):
        assert check_consistency(manifest) == []

    def test_tampered_counter_detected(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["telemetry"]["counters"]["sim.instructions"] += 1
        failures = check_consistency(broken)
        assert any("sim.instructions" in f for f in failures)

    def test_tampered_attempt_count_detected(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["attempts"] += 1
        assert any("attempts" in f for f in check_consistency(broken))

    def test_dropped_unit_detected(self, manifest):
        broken = copy.deepcopy(manifest)
        unit = sorted(broken["telemetry"]["per_unit"])[0]
        del broken["telemetry"]["per_unit"][unit]
        assert check_consistency(broken)


class TestCheckRegressions:
    def test_committed_baselines_skip_at_smoke_scale(self, manifest):
        throughput = json.loads(
            (REPO_ROOT / "BENCH_throughput.json").read_text()
        )
        sweep = json.loads((REPO_ROOT / "BENCH_sweep.json").read_text())
        failures, skipped, passed = check_regressions(
            manifest, throughput, sweep
        )
        assert failures == []
        assert len(skipped) == 2
        assert all("skipped (scale)" in s for s in skipped)

    def _scaled_baseline(self, manifest, factor):
        bench = manifest["bench"]
        return {
            "bench_end_to_end_simulation_rate": {
                "instructions": bench["instructions_per_core"],
                "techniques": {
                    name: {"minstr_per_s": entry["minstr_per_s"] * factor}
                    for name, entry in bench["per_technique"].items()
                },
            }
        }

    def test_matching_scale_baseline_passes(self, manifest):
        baseline = self._scaled_baseline(manifest, factor=1.0)
        failures, skipped, passed = check_regressions(manifest, baseline)
        assert failures == []
        assert len(passed) == len(manifest["bench"]["per_technique"])

    def test_synthetically_regressed_baseline_fails(self, manifest):
        baseline = self._scaled_baseline(manifest, factor=100.0)
        failures, _skipped, _passed = check_regressions(manifest, baseline)
        assert len(failures) == len(manifest["bench"]["per_technique"])
        assert all("Minstr/s" in f for f in failures)

    def test_tolerance_widens_the_floor(self, manifest):
        baseline = self._scaled_baseline(manifest, factor=1.05)
        strict, _, _ = check_regressions(manifest, baseline, tolerance=0.0)
        loose, _, _ = check_regressions(manifest, baseline, tolerance=0.5)
        assert strict and not loose

    def test_no_baselines_means_no_checks(self, manifest):
        assert check_regressions(manifest) == ([], [], [])


class TestRenderers:
    def test_markdown_has_all_sections(self, manifest):
        text = render_markdown(
            manifest,
            checks=([], ["sweep rate: skipped (scale): tiny"], []),
            consistency=[],
        )
        for heading in ("# Sweep report", "## Summary",
                        "## Per-technique energy / performance",
                        "## Campaign telemetry", "## Simulation rates",
                        "## Consistency", "## Bench regression check"):
            assert heading in text
        assert manifest["fingerprint"] in text
        assert "esteem" in text

    def test_markdown_renders_failures_and_retries(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["failed"] = [{
            "workload": "mcf", "attempts": 3, "exc_type": "WorkerCrash",
            "detail": "died", "telemetry": "lost",
        }]
        broken["timeline"].append({
            "workload": "mcf", "attempt": 1, "outcome": "retry",
            "exc_type": "WorkerCrash", "start_s": 0.0, "end_s": 1.0,
            "wall_s": 1.0, "telemetry": "lost",
        })
        text = render_markdown(broken)
        assert "## Retry / backoff timeline" in text
        assert "## Failures" in text
        assert "WorkerCrash" in text

    def test_csv_one_row_per_technique(self, manifest):
        lines = render_csv(manifest).strip().splitlines()
        assert lines[0].startswith("technique,")
        assert len(lines) == 1 + len(manifest["aggregates"])
        assert lines[1].startswith("esteem,")


class TestSupervisionManifest:
    """Manifest v4: skipped / interrupted."""

    SKIPPED_ENTRY = {"workload": "mcf", "attempts": 0}

    def test_clean_manifest_has_empty_supervision_outcomes(self, manifest):
        assert "quarantined" not in manifest
        assert "supervision" not in manifest
        assert manifest["skipped"] == []
        assert manifest["interrupted"] is None

    def test_skipped_items_require_full_shape(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["skipped"] = [{"workload": "povray"}]
        errors = validate_manifest(broken)
        assert any("skipped[0]" in e and "required" in e for e in errors)

    def test_skipped_reason_enum_enforced(self, manifest):
        # A signal is the one reason a unit is skipped: the retired
        # campaign deadline's outcome no longer validates.
        broken = copy.deepcopy(manifest)
        broken["timeline"][0]["outcome"] = "skipped-deadline"
        assert any(
            "timeline[0].outcome" in e for e in validate_manifest(broken)
        )

    def test_supervision_required_keys(self, manifest):
        for key in ("skipped", "interrupted"):
            broken = copy.deepcopy(manifest)
            del broken[key]
            errors = validate_manifest(broken)
            assert any("required" in e and key in e for e in errors), key

    def test_interrupted_must_be_string_or_null(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["interrupted"] = 9
        assert any("interrupted" in e for e in validate_manifest(broken))

    def test_well_formed_supervision_outcomes_validate(self, manifest):
        full = copy.deepcopy(manifest)
        full["skipped"] = [dict(self.SKIPPED_ENTRY)]
        full["interrupted"] = "SIGTERM"
        assert validate_manifest(full) == []

    def test_in_flight_timeline_extra_tolerated(self, manifest):
        # The validator must ignore unknown keys: cancelled in-flight
        # attempts carry an extra ``in_flight`` marker.
        tagged = copy.deepcopy(manifest)
        tagged["timeline"][0]["in_flight"] = True
        assert validate_manifest(tagged) == []

    def test_skipped_completed_overlap_detected(self, manifest):
        broken = copy.deepcopy(manifest)
        broken["skipped"] = [dict(self.SKIPPED_ENTRY, workload="gamess")]
        errors = check_consistency(broken)
        assert any("both completed and skipped" in e for e in errors)

    def test_markdown_renders_supervision_sections(self, manifest):
        m = copy.deepcopy(manifest)
        m["skipped"] = [dict(self.SKIPPED_ENTRY)]
        m["interrupted"] = "SIGTERM"
        text = render_markdown(m)
        assert "## Skipped (cancelled, not failed)" in text
        assert "Interrupted by SIGTERM" in text


class TestResultCacheReporting:
    def test_no_cache_section_when_cache_unused(self, manifest):
        assert manifest["result_cache"] is None
        assert "## Result cache" not in render_markdown(manifest)

    def test_corrupt_cache_files_surface_as_warning(self, manifest):
        m = copy.deepcopy(manifest)
        m["result_cache"] = {
            "hits": 3, "misses": 2, "stores": 2, "corrupt": 1,
            "hit_rate": 0.6,
        }
        assert validate_manifest(m) == []
        text = render_markdown(m)
        assert "## Result cache" in text
        assert "corrupt and treated as misses" in text

    def test_clean_cache_renders_without_warning(self, manifest):
        m = copy.deepcopy(manifest)
        m["result_cache"] = {
            "hits": 4, "misses": 1, "stores": 1, "corrupt": 0,
            "hit_rate": 0.8,
        }
        text = render_markdown(m)
        assert "## Result cache" in text
        assert "corrupt and treated as misses" not in text
