"""Tests for the parallel experiment executor and its memo cache.

The repo's core contract is determinism: the executor must produce
byte-identical ``SimulationResult.to_dict()`` payloads no matter whether a
run was simulated serially, in a worker pool, or recalled from the on-disk
cache.
"""

import json

import pytest

from repro.config.presets import baseline_config, widir_config
from repro.harness.executor import (
    CACHE_SCHEMA_VERSION,
    Executor,
    ExperimentPlan,
    RunRequest,
    run_key,
)
from repro.harness import executor as executor_module
from repro.harness.runner import SimulationResult, run_pair
from repro.harness.sweeps import add_points, grid
from repro.traces import result_digest
from repro.workloads import generator

APPS = ("radiosity", "blackscholes")
CORES = 8
MEMOPS = 150


def _pair_plan():
    plan = ExperimentPlan()
    indices = [plan.add_pair(app, num_cores=CORES, memops=MEMOPS) for app in APPS]
    return plan, indices


def _canonical(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


class TestRunKey:
    def test_key_is_stable(self):
        a = RunRequest("fft", widir_config(num_cores=8), 200, 0)
        b = RunRequest("fft", widir_config(num_cores=8), 200, 0)
        assert run_key(a) == run_key(b)

    def test_key_covers_every_dimension(self):
        base = RunRequest("fft", widir_config(num_cores=8), 200, 0)
        variants = [
            RunRequest("lu-c", widir_config(num_cores=8), 200, 0),
            RunRequest("fft", widir_config(num_cores=16), 200, 0),
            RunRequest("fft", widir_config(num_cores=8, max_wired_sharers=4), 200, 0),
            RunRequest("fft", widir_config(num_cores=8, seed=7), 200, 0),
            RunRequest("fft", baseline_config(num_cores=8), 200, 0),
            RunRequest("fft", widir_config(num_cores=8), 300, 0),
            RunRequest("fft", widir_config(num_cores=8), 200, 1),
        ]
        keys = {run_key(v) for v in variants}
        assert run_key(base) not in keys
        assert len(keys) == len(variants)

    def test_key_includes_schema_version(self):
        request = RunRequest("fft", widir_config(num_cores=8), 200, 0)
        assert request.canonical()["schema"] == CACHE_SCHEMA_VERSION

    @pytest.mark.parametrize(
        "request_, key",
        [
            (
                RunRequest("radiosity", widir_config(num_cores=16, seed=7), 400, 3),
                "5d9148c025b5efe66618f3276953fa9b9f7c277e3341a72bd76689a89c0030ab",
            ),
            (
                RunRequest(
                    "volrend", baseline_config(num_cores=8), 0, 0,
                    trace_path="recorded/volrend.wtr", trace_id="ab" * 32,
                ),
                "7595bebc721d8d45879300d9a6231e72afe29695fdf5a10f0cee46573fb4d358",
            ),
            (
                RunRequest(
                    "volrend", widir_config(num_cores=8), 0, 0,
                    trace_path="traces/volrend.wtr", trace_id="cd" * 32,
                    trace_window=((0, 4), (2, 6)),
                ),
                "9045315e6bd15290a967fe68634be64a1ca829f25507e54d85f00262188cd859",
            ),
        ],
        ids=["synthesized", "whole-trace", "windowed"],
    )
    def test_wire_form_round_trips_and_keeps_the_key(self, request_, key):
        """A request crosses to a campaign worker as ``to_dict()`` JSON and
        comes back equal; its key is the one earlier releases computed, so
        caches and campaign manifests still hit."""
        wire = json.loads(json.dumps(request_.to_dict()))
        assert RunRequest.from_dict(wire) == request_
        assert run_key(request_) == key
        assert run_key(RunRequest.from_dict(wire)) == key


class TestDeterminism:
    def test_parallel_matches_serial_byte_identically(self, tmp_path):
        """ISSUE satellite: Executor(workers=4) == serial, byte for byte."""
        serial = Executor(workers=1, cache_dir=tmp_path / "s", use_cache=False)
        parallel = Executor(workers=4, cache_dir=tmp_path / "p", use_cache=False)
        plan_a, _ = _pair_plan()
        plan_b, _ = _pair_plan()
        assert _canonical(serial.map_runs(plan_a)) == _canonical(
            parallel.map_runs(plan_b)
        )
        assert serial.stats.executed == parallel.stats.executed == 4

    def test_executor_matches_plain_run_pair(self, tmp_path):
        exe = Executor(workers=4, cache_dir=tmp_path, use_cache=False)
        for app in APPS:
            direct = run_pair(app, num_cores=CORES, memops_per_core=MEMOPS)
            via_exe = exe.run_pair(app, num_cores=CORES, memops_per_core=MEMOPS)
            assert _canonical(direct) == _canonical(via_exe)

    def test_cached_results_byte_identical_to_fresh(self, tmp_path):
        exe = Executor(workers=1, cache_dir=tmp_path, use_cache=True)
        plan_a, _ = _pair_plan()
        fresh = _canonical(exe.map_runs(plan_a))
        plan_b, _ = _pair_plan()
        warm = _canonical(exe.map_runs(plan_b))
        assert fresh == warm


class TestMemoization:
    def test_warm_cache_short_circuits(self, tmp_path):
        """ISSUE satellite: a second identical plan executes 0 simulations."""
        exe = Executor(workers=1, cache_dir=tmp_path, use_cache=True)
        plan_a, _ = _pair_plan()
        exe.map_runs(plan_a)
        executed_cold = exe.stats.executed
        assert executed_cold == 4
        plan_b, _ = _pair_plan()
        exe.map_runs(plan_b)
        assert exe.stats.executed == executed_cold  # nothing re-simulated
        assert exe.stats.cache_hits == 4
        assert exe.stats.hit_rate == pytest.approx(0.5)

    def test_duplicate_requests_deduplicated_before_dispatch(self, tmp_path):
        exe = Executor(workers=1, cache_dir=tmp_path, use_cache=False)
        plan = ExperimentPlan()
        config = widir_config(num_cores=CORES)
        first = plan.add(APPS[0], config, MEMOPS)
        second = plan.add(APPS[0], config, MEMOPS)  # identical request
        results = exe.map_runs(plan)
        assert exe.stats.executed == 1
        assert exe.stats.deduplicated == 1
        assert _canonical([results[first]]) == _canonical([results[second]])

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        exe = Executor(workers=1, cache_dir=tmp_path, use_cache=True)
        request = RunRequest(APPS[0], widir_config(num_cores=CORES), MEMOPS, 0)
        (tmp_path / f"{run_key(request)}.json").write_text("{truncated")
        plan = ExperimentPlan()
        plan.add(APPS[0], widir_config(num_cores=CORES), MEMOPS)
        exe.map_runs(plan)
        assert exe.stats.executed == 1
        assert exe.stats.cache_hits == 0

    def test_prune_cache_removes_entries(self, tmp_path):
        exe = Executor(workers=1, cache_dir=tmp_path, use_cache=True)
        plan, _ = _pair_plan()
        exe.map_runs(plan)
        assert exe.prune_cache() == 4
        assert list(tmp_path.glob("*.json")) == []


class TestTraceSets:
    """A plan's runs that share a trace set run back to back, so the
    synthesis memo, which keeps one set, builds each set once."""

    #: Not used by any other test, so no earlier test's set is a hit.
    TRACE_SEED = 11

    def _table6_plan(self):
        """Table VI's shape: every app's Baseline, then WiDir at each
        threshold, app by app."""
        plan = ExperimentPlan()
        add_points(
            plan,
            grid("protocols", APPS, (CORES,), protocols=("baseline",)),
            MEMOPS,
            self.TRACE_SEED,
        )
        add_points(
            plan, grid("thresholds", APPS, (CORES,), (2, 3)), MEMOPS, self.TRACE_SEED
        )
        return plan

    def _serial_syntheses(self, monkeypatch, tmp_path):
        """Run the plan on one worker; returns (core syntheses, results)."""
        built = []
        real = generator.build_core_trace

        def counted(*args, **kwargs):
            built.append(args[:2])
            return real(*args, **kwargs)

        monkeypatch.setattr(generator, "build_core_trace", counted)
        monkeypatch.setattr(generator, "_LAST_TRACES", None)
        serial = Executor(workers=1, cache_dir=tmp_path, use_cache=False)
        results = serial.map_runs(self._table6_plan())
        return len(built), results

    def test_each_set_is_built_once(self, monkeypatch, tmp_path):
        built, serial = self._serial_syntheses(monkeypatch, tmp_path / "s")
        assert built == len(APPS) * CORES
        pooled = Executor(workers=2, cache_dir=tmp_path / "p", use_cache=False)
        parallel = pooled.map_runs(self._table6_plan())
        assert [result_digest(r) for r in serial] == [
            result_digest(r) for r in parallel
        ]

    def test_plan_order_would_build_each_set_twice(self, monkeypatch, tmp_path):
        """Without the grouping the Baselines and the WiDir runs are two
        stretches, so each set is built in both."""
        monkeypatch.setattr(executor_module, "_by_trace_set", lambda todo: todo)
        built, _ = self._serial_syntheses(monkeypatch, tmp_path)
        assert built == 2 * len(APPS) * CORES

    def test_groups_keep_first_occurrence_order(self):
        config = widir_config(num_cores=CORES)
        todo = [
            ("k0", RunRequest("fft", config, 200, 0)),
            ("k1", RunRequest("lu-c", config, 200, 0)),
            ("k2", RunRequest("fft", config, 200, 1)),
            ("k3", RunRequest("fft", baseline_config(num_cores=CORES), 200, 0)),
            ("k4", RunRequest("lu-c", config, 300, 0)),
            ("k5", RunRequest("lu-c", baseline_config(num_cores=CORES), 200, 0)),
        ]
        ordered = [key for key, _ in executor_module._by_trace_set(todo)]
        assert ordered == ["k0", "k3", "k1", "k5", "k2", "k4"]


class TestSerialization:
    def test_result_roundtrip_is_byte_identical(self, tmp_path):
        exe = Executor(workers=1, cache_dir=tmp_path, use_cache=False)
        result = exe.run(APPS[0], widir_config(num_cores=CORES), MEMOPS)
        payload = result.to_dict()
        restored = SimulationResult.from_dict(payload)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            restored.to_dict(), sort_keys=True
        )
        assert restored.config == result.config
        assert restored.mpki == result.mpki

    def test_config_roundtrip_exact(self):
        config = widir_config(num_cores=16, max_wired_sharers=4, seed=9)
        assert type(config).from_dict(config.to_dict()) == config


class TestFiguresThroughExecutor:
    def test_figures_share_cache_across_artifacts(self, tmp_path):
        """fig6 and fig7 declare the same pairs: second figure is all hits."""
        from repro.harness.figures import figure6_mpki, figure7_memory_latency

        exe = Executor(workers=1, cache_dir=tmp_path, use_cache=True)
        figure6_mpki(apps=APPS, num_cores=CORES, memops=MEMOPS, executor=exe)
        executed_after_fig6 = exe.stats.executed
        assert executed_after_fig6 == 4
        figure7_memory_latency(
            apps=APPS, num_cores=CORES, memops=MEMOPS, executor=exe
        )
        assert exe.stats.executed == executed_after_fig6

    def test_figure_rows_identical_serial_vs_parallel(self, tmp_path):
        from repro.harness.figures import figure6_mpki

        serial = figure6_mpki(
            apps=APPS,
            num_cores=CORES,
            memops=MEMOPS,
            executor=Executor(workers=1, cache_dir=tmp_path / "s", use_cache=False),
        )
        parallel = figure6_mpki(
            apps=APPS,
            num_cores=CORES,
            memops=MEMOPS,
            executor=Executor(workers=4, cache_dir=tmp_path / "p", use_cache=False),
        )
        assert serial.rows == parallel.rows
        assert serial.text == parallel.text
