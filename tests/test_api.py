"""Top-level API surface and documentation-consistency tests."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parents[2]


class TestPublicApi:
    #: Run in a fresh interpreter: importing ``repro`` and every
    #: subpackage loads no NumPy, and then every name in ``repro.__all__``
    #: and in each subpackage ``__all__`` resolves.
    RESOLVE = """\
import importlib, pkgutil, sys
import repro
packages = [repro] + [
    importlib.import_module(f"repro.{info.name}")
    for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
]
assert "numpy" not in sys.modules, "importing the packages loaded NumPy"
missing = [
    f"{package.__name__}.{name}"
    for package in packages
    for name in getattr(package, "__all__", ())
    if not hasattr(package, name)
]
assert not missing, missing
"""

    def test_all_names_resolve(self, repro_env):
        proc = subprocess.run(
            [sys.executable, "-c", self.RESOLVE], env=repro_env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_version(self):
        assert re.match(r"^\d+\.\d+\.\d+$", repro.__version__)

    def test_quickstart_docstring_example_runs(self):
        """The module docstring's example must actually work."""
        runner = repro.Runner(
            repro.SimConfig.scaled(instructions_per_core=2_000_000)
        )
        comparison = runner.compare("h264ref", "esteem")
        assert comparison.energy_saving_pct > 0


class TestPaperScaleConfig:
    def test_paper_scale_simulates(self):
        """The full-scale parameters must at least run (on a tiny trace)."""
        from repro.timing.system import System
        from repro.workloads.synthetic import generate_trace
        from repro.workloads.profiles import get_profile

        cfg = repro.SimConfig.paper_scale(1)
        import dataclasses

        cfg = dataclasses.replace(cfg, instructions_per_core=200_000)
        trace = generate_trace(get_profile("gamess"), 200_000, seed=0)
        res = System(cfg, [trace], "esteem").run()
        assert res.total_cycles > 0


class TestDocsConsistency:
    def test_readme_bench_references_exist(self):
        readme = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(bench_[a-z0-9_]+\.py)`", readme):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_readme_example_references_exist(self):
        readme = (ROOT / "README.md").read_text()
        for name in re.findall(r"examples/([a-z0-9_]+\.py)", readme):
            assert (ROOT / "examples" / name).exists(), name

    def test_design_bench_references_exist(self):
        design = (ROOT / "DESIGN.md").read_text()
        for name in re.findall(r"benchmarks/(bench_[a-z0-9_]+\.py)", design):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_bench_file_mentioned_in_design(self):
        design = (ROOT / "DESIGN.md").read_text()
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in design, f"{path.name} missing from DESIGN.md"

    def test_required_top_level_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "pyproject.toml"):
            assert (ROOT / name).exists(), name

    def test_examples_all_have_main_and_docstring(self):
        for path in (ROOT / "examples").glob("*.py"):
            text = path.read_text()
            assert '"""' in text.split("\n", 2)[-1] or text.startswith(
                ('#!/usr/bin/env python\n"""', '"""')
            ), path.name
            assert '__name__ == "__main__"' in text, path.name

    def test_design_lists_all_techniques(self):
        from repro.timing.system import TECHNIQUES

        readme = (ROOT / "README.md").read_text()
        for tech in TECHNIQUES:
            assert f"`{tech}`" in readme, tech
