"""Unit tests for the throughput bench module and its front end.

``benchmarks/check_throughput.py`` runs the full-scale measurement in CI;
here one small measurement runs end to end, the gate arithmetic is
pinned with synthetic measurements, and the front end's exit codes are
checked against a stubbed measurement, so a regression in the rules (not
the machine) is caught at unit speed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.throughput import (
    BATCH_SPEEDUP_FLOOR,
    TECHNIQUES,
    check,
    make_record,
    measure,
)

ROOT = Path(__file__).resolve().parents[2]


def _row(
    minstr=50.0,
    batch_speedup=1.5,
    ref_speedup=2.0,
):
    return {
        "batch_seconds": 0.2,
        "scalar_seconds": 0.2 * batch_speedup,
        "reference_seconds": 0.2 * ref_speedup,
        "minstr_per_s": minstr,
        "batch_speedup_vs_scalar": batch_speedup,
        "speedup_vs_reference": ref_speedup,
        "kernel_batch_records": 1000,
        "kernel_scalar_records": 0,
    }


def _current(**overrides):
    rows = {
        "baseline": _row(minstr=90.0, batch_speedup=1.7, ref_speedup=2.6),
        "rpv": _row(minstr=40.0, batch_speedup=1.4, ref_speedup=1.9),
        "esteem": _row(minstr=55.0, batch_speedup=1.0, ref_speedup=1.7),
    }
    rows.update(overrides)
    return {
        "workload": "sphinx",
        "instructions": 24_000_000,
        "techniques": rows,
        "best_batch_speedup_vs_scalar": max(
            r["batch_speedup_vs_scalar"] for r in rows.values()
        ),
    }


BASELINE = _current()


class TestCheck:
    def test_identical_measurement_passes(self):
        assert check(_current(), BASELINE) == []

    def test_batch_floor_is_max_over_techniques(self):
        # One technique below the floor is fine as long as another clears
        # it; all techniques below 1.3x must fail.
        ok = _current(
            baseline=_row(minstr=90.0, batch_speedup=1.31, ref_speedup=2.6),
            rpv=_row(minstr=40.0, batch_speedup=0.9, ref_speedup=1.9),
            esteem=_row(minstr=55.0, batch_speedup=0.9, ref_speedup=1.7),
        )
        assert check(ok, BASELINE) == []
        bad = _current(
            baseline=_row(minstr=90.0, batch_speedup=1.1, ref_speedup=2.6),
            rpv=_row(minstr=40.0, batch_speedup=1.2, ref_speedup=1.9),
            esteem=_row(minstr=55.0, batch_speedup=0.9, ref_speedup=1.7),
        )
        failures = check(bad, BASELINE)
        assert len(failures) == 1
        assert f"{BATCH_SPEEDUP_FLOOR:.1f}x floor" in failures[0]

    def test_reference_speedup_floor_per_technique(self):
        # Recorded baseline 2.6x -> floor max(1.5, 1.3) = 1.5x.
        bad = _current(
            baseline=_row(minstr=90.0, batch_speedup=1.7, ref_speedup=1.2)
        )
        failures = check(bad, BASELINE)
        assert any("baseline" in f and "reference" in f for f in failures)

    def test_absolute_rate_tolerance(self):
        bad = _current(rpv=_row(minstr=25.0, batch_speedup=1.4, ref_speedup=1.9))
        failures = check(bad, BASELINE, tolerance=0.25)
        assert any("rpv" in f and "Minstr/s" in f for f in failures)
        # A generous tolerance forgives the same drop.
        assert check(bad, BASELINE, tolerance=0.5) == []

    def test_unknown_technique_rows_are_ignored(self):
        current = _current()
        current["techniques"]["ecc"] = _row(minstr=1.0, ref_speedup=1.0)
        current["best_batch_speedup_vs_scalar"] = 1.7
        assert check(current, BASELINE) == []


class TestMakeRecord:
    def test_record_shape(self):
        record = make_record(_current())
        assert "bench_end_to_end_simulation_rate" in record
        assert "machine" in record
        inner = record["bench_end_to_end_simulation_rate"]
        assert set(inner["techniques"]) == {"baseline", "rpv", "esteem"}


class TestMeasure:
    def test_small_measurement_end_to_end(self):
        current = measure(instructions=200_000, rounds=1, reference_rounds=1)
        assert current["workload"] == "sphinx"
        assert current["instructions"] == 200_000
        rows = current["techniques"]
        assert tuple(rows) == TECHNIQUES
        for row in rows.values():
            assert row["batch_seconds"] > 0
            assert row["scalar_seconds"] > 0
            assert row["reference_seconds"] > 0
            assert row["minstr_per_s"] > 0
            records = row["kernel_batch_records"] + row["kernel_scalar_records"]
            assert records > 0
        assert current["best_batch_speedup_vs_scalar"] == pytest.approx(
            max(r["batch_speedup_vs_scalar"] for r in rows.values()), abs=0.01
        )
        record = json.loads(json.dumps(make_record(current)))
        assert record["bench_end_to_end_simulation_rate"] == current


@pytest.fixture
def check_throughput(monkeypatch, tmp_path):
    """``benchmarks/check_throughput.py`` with a stubbed measurement."""
    spec = importlib.util.spec_from_file_location(
        "check_throughput", ROOT / "benchmarks" / "check_throughput.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "BASELINE_PATH", tmp_path / "BENCH.json")
    return module


def _slow_kernel():
    return _current(
        baseline=_row(minstr=90.0, batch_speedup=1.1, ref_speedup=2.6),
        rpv=_row(minstr=40.0, batch_speedup=1.2, ref_speedup=1.9),
        esteem=_row(minstr=55.0, batch_speedup=0.9, ref_speedup=1.7),
    )


class TestCheckThroughputScript:
    def test_missing_baseline_fails_without_measuring(
        self, check_throughput, monkeypatch, capsys
    ):
        def never(**_kwargs):
            raise AssertionError("measured without a baseline")

        monkeypatch.setattr(check_throughput, "measure", never)
        assert check_throughput.main([]) == 1
        assert "no baseline recorded" in capsys.readouterr().err
        assert not check_throughput.BASELINE_PATH.exists()

    def test_update_records_a_passing_measurement(
        self, check_throughput, monkeypatch
    ):
        monkeypatch.setattr(
            check_throughput, "measure", lambda **_: _current()
        )
        assert check_throughput.main(["--update"]) == 0
        record = json.loads(check_throughput.BASELINE_PATH.read_text())
        assert record["bench_end_to_end_simulation_rate"] == _current()
        # The recorded baseline then gates the same measurement.
        assert check_throughput.main([]) == 0

    def test_update_refuses_a_measurement_below_the_batch_floor(
        self, check_throughput, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            check_throughput, "measure", lambda **_: _slow_kernel()
        )
        assert check_throughput.main(["--update"]) == 1
        assert f"{BATCH_SPEEDUP_FLOOR:.1f}x floor" in capsys.readouterr().err
        assert not check_throughput.BASELINE_PATH.exists()

    def test_regression_against_the_baseline_fails(
        self, check_throughput, monkeypatch, capsys
    ):
        check_throughput.BASELINE_PATH.write_text(
            json.dumps(make_record(_current()))
        )
        slow = _current(
            rpv=_row(minstr=25.0, batch_speedup=1.4, ref_speedup=1.9)
        )
        monkeypatch.setattr(check_throughput, "measure", lambda **_: slow)
        assert check_throughput.main([]) == 1
        assert "rpv: simulation rate" in capsys.readouterr().err
