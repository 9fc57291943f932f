"""Tests for the sweep grid and its executor."""

import pytest

from repro.config import widir_config
from repro.harness.sweeps import grid, label_for, run_grid, speedup_table


class TestLabels:
    def test_widir_label_includes_threshold(self):
        config = widir_config(num_cores=8, max_wired_sharers=4)
        assert label_for("fft", config) == "fft/widir/8c/t4"

    def test_baseline_label(self):
        from repro.config import baseline_config

        assert label_for("fft", baseline_config(num_cores=8)) == "fft/baseline/8c"


class TestGrid:
    def test_wired_protocols_appear_once_whatever_the_macs(self):
        points = grid(
            "protocols", ("volrend",), (4,), macs=("token", "brs")
        )
        assert [label for label, _, _ in points] == [
            "volrend/baseline/4c",
            "volrend/widir/4c/t3/token",
            "volrend/widir/4c/t3",
        ]
        assert points[0][2].mac == "brs"

    def test_thresholds_grid_is_widir_only(self):
        points = grid("thresholds", ("fft",), (8, 4), (5, 2))
        assert [label for label, _, _ in points] == [
            "fft/widir/8c/t5",
            "fft/widir/8c/t2",
            "fft/widir/4c/t5",
            "fft/widir/4c/t2",
        ]

    @pytest.mark.parametrize(
        "kind, kwargs",
        (
            ("meteor", {}),
            ("protocols", {"protocols": ("meteor",)}),
            ("thresholds", {"macs": ("meteor",)}),
        ),
        ids=("kind", "protocol", "mac"),
    )
    def test_rejects_unknown_names(self, kind, kwargs):
        with pytest.raises(ValueError):
            grid(kind, ("volrend",), (4,), (3,), **kwargs)


class TestSweeps:
    def test_protocol_sweep_runs_both_machines(self):
        points = grid("protocols", ["volrend"], (8,))
        results = run_grid(points, None, 150)
        assert len(results) == len(points) == 2
        assert any("/baseline/" in label for label in results)
        assert any("/widir/" in label for label in results)

    def test_core_count_sweep(self):
        results = run_grid(grid("protocols", ["volrend"], (4, 8)), None, 150)
        assert len(results) == 4
        cores_seen = {r.config.num_cores for r in results.values()}
        assert cores_seen == {4, 8}

    def test_threshold_sweep(self):
        results = run_grid(
            grid("thresholds", ["volrend"], (8,), (2, 3)), None, 150
        )
        assert len(results) == 2
        thresholds = {
            r.config.directory.max_wired_sharers for r in results.values()
        }
        assert thresholds == {2, 3}

    def test_speedup_table_pairs_protocols(self):
        results = run_grid(grid("protocols", ["volrend"], (8,)), None, 150)
        table = speedup_table(results)
        assert "volrend" in table
        assert table["volrend"] > 0
