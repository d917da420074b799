"""Consistency between the code, the registry, and the documentation.

These guards keep DESIGN.md / EXPERIMENTS.md / README.md honest as the
experiment registry grows: every registered artifact must be documented
and benchmarked, and everything the docs promise must exist.
"""

from pathlib import Path

import pytest

from repro.experiments import EXPERIMENT_IDS
from repro.experiments.bundle import REPORT_SECTIONS
from repro.serve.http import ROUTES

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def experiments_md():
    return (ROOT / "EXPERIMENTS.md").read_text()


@pytest.fixture(scope="module")
def readme_md():
    return (ROOT / "README.md").read_text()


class TestRegistryCoverage:
    def test_every_experiment_documented(self, experiments_md):
        for exp_id in EXPERIMENT_IDS:
            # Static config tables share one section; everything else is
            # named explicitly.
            assert f"`{exp_id}`" in experiments_md, exp_id

    def test_every_experiment_benchmarked(self):
        bench_sources = "\n".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("test_*.py")
        )
        for exp_id in EXPERIMENT_IDS:
            assert f'"{exp_id}"' in bench_sources, exp_id

    def test_report_sections_reference_known_ids(self):
        listed = {e for _s, ids in REPORT_SECTIONS for e in ids}
        assert listed <= set(EXPERIMENT_IDS)
        # The headline artifacts are always in the report.
        assert {"table4", "table5", "fig7"} <= listed


class TestDocPromises:
    def test_readme_examples_exist(self, readme_md):
        for line in readme_md.splitlines():
            if line.startswith("| `") and line.endswith(" |") and ".py" in line:
                name = line.split("`")[1]
                assert (ROOT / "examples" / name).exists(), name

    def test_readme_docs_exist(self, readme_md):
        for doc in ("docs/model.md", "docs/data_formats.md",
                    "docs/performance.md"):
            assert doc in readme_md
            assert (ROOT / doc).exists()

    def test_required_deliverable_files_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "CHANGELOG.md", "CONTRIBUTING.md", "pyproject.toml"):
            assert (ROOT / name).exists(), name

    def test_serving_doc_lists_every_route(self):
        serving = (ROOT / "docs" / "serving.md").read_text()
        for route in ROUTES.routes:
            assert f"`{route.method} {route.path}`" in serving, route.path

    def test_design_lists_every_subpackage(self):
        design = (ROOT / "DESIGN.md").read_text()
        src = ROOT / "src" / "repro"
        for pkg in src.iterdir():
            if pkg.is_dir() and (pkg / "__init__.py").exists():
                assert pkg.name in design, pkg.name
