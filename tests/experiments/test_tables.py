"""Tests for the Table 3 sensitivity machinery."""

import pytest

from repro.config import SimConfig
from repro.experiments.parallel import resilient_sweep
from repro.experiments.runner import Runner, aggregate
from repro.experiments.tables import SENSITIVITY_VARIANTS


class TestVariantCatalogue:
    def test_17_rows_per_system(self):
        assert len(SENSITIVITY_VARIANTS["single"]) == 17
        assert len(SENSITIVITY_VARIANTS["dual"]) == 17

    def test_single_labels_match_paper_rows(self):
        labels = [v.label for v in SENSITIVITY_VARIANTS["single"]]
        for expected in ("default", "A_min=2", "A_min=4", "alpha=0.95",
                         "alpha=0.99", "2 modules", "32 modules", "Rs=32",
                         "Rs=128", "8-way L2", "32-way L2", "2MB L2", "8MB L2"):
            assert expected in labels

    def test_dual_has_module_rows_shifted(self):
        labels = [v.label for v in SENSITIVITY_VARIANTS["dual"]]
        assert "64 modules" in labels
        assert "4MB L2" in labels and "16MB L2" in labels

    def test_variants_transform_configs(self):
        cfg = SimConfig.scaled()
        for variant in SENSITIVITY_VARIANTS["single"]:
            new = variant.apply(cfg)
            new.esteem.validate_for_cache(new.l2)  # must stay coherent

    def test_interval_rows_scale_relative(self):
        cfg = SimConfig.scaled(interval_cycles=1_000_000)
        half = next(
            v for v in SENSITIVITY_VARIANTS["single"] if v.label.startswith("0.5x")
        )
        assert half.apply(cfg).esteem.interval_cycles == 500_000


class TestSensitivityRow:
    """A Table 3 row is one sweep of ESTEEM under the variant's config
    (what ``repro table 3`` runs); it equals the sequential reference on
    that config."""

    @pytest.fixture(scope="class")
    def base(self) -> SimConfig:
        return SimConfig.scaled(instructions_per_core=300_000)

    @staticmethod
    def _row_matches_reference(base, variant):
        config = variant.apply(base)
        swept = resilient_sweep(config, ["gamess"], ("esteem",), jobs=1)
        reference = Runner(config).compare_many(["gamess"], "esteem")
        assert swept.comparisons["esteem"] == reference
        row = aggregate(swept.comparisons["esteem"])
        assert row == aggregate(reference)
        assert row.workloads == 1

    def test_default_row_runs(self, base):
        self._row_matches_reference(base, SENSITIVITY_VARIANTS["single"][0])

    def test_geometry_row_runs(self, base):
        # A geometry row changes the L2 the worker builds its systems on.
        variant = next(
            v for v in SENSITIVITY_VARIANTS["single"] if v.label == "2MB L2"
        )
        self._row_matches_reference(base, variant)
