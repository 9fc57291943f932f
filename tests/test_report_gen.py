"""Tests for the Markdown report generator."""

import pytest

from repro.harness.report_gen import generate_report
from repro.harness.sweeps import grid, run_grid


@pytest.fixture(scope="module")
def sweep_results():
    return run_grid(grid("protocols", ["volrend", "fft"], (8,)), None, 150)


class TestReport:
    def test_contains_all_sections(self, sweep_results):
        report = generate_report(sweep_results)
        for heading in (
            "# WiDir sweep report",
            "## Execution time",
            "## L1 misses per kilo-instruction",
            "## Wireless activity",
            "## Energy",
        ):
            assert heading in report

    def test_one_row_per_app(self, sweep_results):
        report = generate_report(sweep_results)
        assert report.count("| volrend |") == 4  # one per section
        assert report.count("| fft |") == 4

    def test_speedup_column_formatted(self, sweep_results):
        report = generate_report(sweep_results)
        assert "x |" in report

    def test_custom_title(self, sweep_results):
        report = generate_report(sweep_results, title="Nightly")
        assert report.startswith("# Nightly")

    def test_unpaired_results_noted(self, sweep_results):
        partial = dict(list(sweep_results.items())[:3])  # breaks one pair
        report = generate_report(partial)
        assert "unpaired" in report

    def test_markdown_tables_well_formed(self, sweep_results):
        report = generate_report(sweep_results)
        for line in report.splitlines():
            if line.startswith("|"):
                assert line.endswith("|")
