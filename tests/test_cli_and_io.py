"""Tests for the CLI and its JSON result output."""

import json

import pytest

from repro.cli import main
from repro.config.presets import protocol_config
from repro.harness.executor import Executor
from repro.harness.figures import figure6_mpki
from repro.harness.runner import SimulationResult, run_app
from repro.traces import record_app_trace, result_digest


class TestCliJson:
    """``--json`` prints the canonical ``SimulationResult.to_dict()`` form."""

    def test_sim_run_json_loads_as_the_same_result(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--cores", "8", "--memops", "150",
             "--no-cache", "--json"]
        ) == 0
        loaded = SimulationResult.from_dict(json.loads(capsys.readouterr().out))
        live = run_app("volrend", protocol_config("widir", num_cores=8, seed=42), 150)
        assert result_digest(loaded) == result_digest(live)

    def test_sim_run_uses_the_api_preset_rule(self, capsys):
        """Wired protocols ignore ``--mac``: the CLI stores the API's
        result (same config, same digest), not a second cache entry."""
        from repro import api

        assert main(
            ["sim", "run", "volrend", "--protocol", "baseline", "--mac",
             "token", "--cores", "4", "--memops", "100", "--no-cache",
             "--json"]
        ) == 0
        loaded = SimulationResult.from_dict(json.loads(capsys.readouterr().out))
        assert loaded.config.mac == "brs"
        via_api = api.simulate(
            "volrend", protocol="baseline", mac="token", cores=4,
            memops=100, cache=False,
        )
        assert result_digest(loaded) == result_digest(via_api)

    def test_traces_replay_json_loads_as_the_same_result(self, capsys, tmp_path):
        path = tmp_path / "radiosity.wtr"
        record_app_trace(path, "radiosity", 8, 150, trace_seed=3)
        assert main(["traces", "replay", str(path), "--json"]) == 0
        loaded = SimulationResult.from_dict(json.loads(capsys.readouterr().out))
        live = run_app(
            "radiosity", protocol_config("widir", num_cores=8, seed=42), 150, 3
        )
        assert result_digest(loaded) == result_digest(live)


class TestCli:
    def test_run_command(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--cores", "8", "--memops", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "L1 MPKI" in out
        assert "wireless writes" in out

    def test_run_json_output(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--cores", "8", "--memops", "150",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["app"] == "volrend"
        assert payload["cycles"] > 0

    def test_run_baseline_protocol(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--protocol", "baseline", "--cores",
             "8", "--memops", "150"]
        ) == 0
        assert "baseline" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(
            ["sim", "compare", "volrend", "--cores", "8", "--memops", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "WiDir speedup" in out
        assert "energy ratio" in out

    def test_figure_command(self, capsys):
        assert main(
            ["figure", "render", "table5", "--apps", "volrend", "--cores",
             "16", "--memops", "150"]
        ) == 0
        assert "Table V" in capsys.readouterr().out

    def test_figure_render_passes_the_seed(self, capsys):
        """The machine seed moves radiosity's WiDir misses at 16 cores x
        800 references, so ``--seed`` shows in fig6."""
        argv = [
            "figure", "render", "fig6", "--apps", "radiosity", "--cores",
            "16", "--memops", "800", "--workers", "1", "--no-cache",
        ]
        out = {}
        for seed in ("7", "42"):
            assert main(argv + ["--seed", seed]) == 0
            out[seed] = capsys.readouterr().out
        assert out["7"] != out["42"]
        direct = figure6_mpki(
            apps=("radiosity",), num_cores=16, memops=800,
            executor=Executor(workers=1, use_cache=False), seed=7,
        )
        assert out["7"] == direct.text + "\n"

    def test_figure_rejects_unknown_app(self, capsys):
        assert main(
            ["figure", "render", "fig6", "--apps", "doom", "--cores", "8",
             "--memops", "100"]
        ) == 2
        assert "unknown apps" in capsys.readouterr().err

    def test_apps_command_lists_all_twenty(self, capsys):
        assert main(["apps", "list"]) == 0
        out = capsys.readouterr().out
        assert out.count("splash3") == 13
        assert out.count("parsec") == 7

    def test_unknown_app_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["sim", "run", "doom"])

    def test_profile_command_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "prof" / "report.txt"
        assert main(
            [
                "sim", "profile", "volrend", "--cores", "8", "--memops",
                "100", "--top", "5", "--out", str(out_file),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Ordered by: internal time" in out
        text = out_file.read_text()
        assert "volrend on widir @ 8 cores" in text
        assert "simulated cycles=" in text

    def test_profile_command_stdout_only(self, capsys):
        assert main(
            [
                "sim", "profile", "volrend", "--protocol", "baseline",
                "--cores", "8", "--memops", "100", "--sort", "cumulative",
                "--cold", "--top", "5", "--out", "-",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Ordered by: cumulative time" in out
        assert "wrote" not in out


class TestTraceCli:
    def test_trace_run_export_summarize(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        capture_path = tmp_path / "capture.json"
        assert main(
            [
                "trace", "run", "--app", "radiosity", "--cores", "8",
                "--memops", "200", "--out", str(trace_path),
                "--capture", str(capture_path), "--timeline", "--limit", "10",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "counter tracks:" in out
        assert trace_path.exists() and capture_path.exists()

        assert main(["trace", "summarize", str(capture_path)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out
        assert "flight recorder:" in out

        text_path = tmp_path / "timeline.txt"
        assert main(
            [
                "trace", "export", str(capture_path), "--format", "text",
                "--out", str(text_path), "--limit", "20",
            ]
        ) == 0
        assert text_path.exists()

        chrome_path = tmp_path / "chrome.json"
        assert main(
            [
                "trace", "export", str(capture_path), "--format", "chrome",
                "--out", str(chrome_path),
            ]
        ) == 0
        from repro.obs import validate_chrome_trace_file

        assert validate_chrome_trace_file(chrome_path) == []

    def test_run_command_prints_latency_percentiles(self, capsys):
        assert main(
            ["sim", "run", "volrend", "--cores", "8", "--memops", "150"]
        ) == 0
        out = capsys.readouterr().out
        assert "latency p50/95/99" in out


class TestDeprecatedCampaignSpellings:
    """The 1.3 result-store spellings are gone in 1.4 and ``serve
    --shards`` in 1.6 (their exit 2 is pinned in
    ``test_cli_contract.REMOVED_SPELLINGS``)."""

    def test_campaign_serve_without_store_prints_no_notice(
        self, capsys, tmp_path
    ):
        assert main(
            ["campaign", "serve", "--out", str(tmp_path / "none")]
        ) == 2
        assert "deprecated" not in capsys.readouterr().err
