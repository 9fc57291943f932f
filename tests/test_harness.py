"""Tests for the experiment harness (runner, figures, motivation probe)."""

import cProfile
import dataclasses
import json
import os
import sys
import threading
import time
import types

import pytest

from repro import api
from repro.config import baseline_config, widir_config
from repro.engine.errors import SimulationError
from repro.harness import executor
from repro.harness.executor import Executor, ExperimentPlan
from repro.harness.figures import (
    figure10_scalability,
    figure5_sharer_histogram,
    figure6_mpki,
    table4_mpki_characterization,
    table5_hop_distribution,
    table6_sensitivity,
)
from repro.harness.motivation import section2c_sharing_probe
from repro.harness.runner import SimulationResult, run_app, run_pair
from repro.workloads.profiles import resolve_profile

FAST = dict(memops_per_core=200)
APPS = ("radiosity", "blackscholes")


class TestRunner:
    def test_run_app_produces_complete_result(self):
        result = run_app("radiosity", widir_config(num_cores=8), 200)
        assert isinstance(result, SimulationResult)
        assert result.cycles > 0
        assert result.instructions > 0
        assert result.mpki > 0
        assert result.memory_stall_cycles > 0
        assert set(result.sharer_histogram) == {"0-5", "6-10", "11-25", "26-49", "50+"}
        assert set(result.hop_histogram) == {"0-2", "3-5", "6-8", "9-11", "12+"}
        assert result.energy.total > 0

    def test_baseline_has_no_wireless_activity(self):
        result = run_app("radiosity", baseline_config(num_cores=8), 200)
        assert result.wireless_writes == 0
        assert result.collision_probability == 0.0
        assert result.energy.wnoc == 0.0

    def test_widir_energy_includes_wnoc(self):
        result = run_app("radiosity", widir_config(num_cores=8), 200)
        assert result.energy.wnoc > 0

    def test_run_pair_shares_reference_stream(self):
        base, widir = run_pair("fft", num_cores=8, **FAST)
        assert base.instructions == widir.instructions
        assert base.app == widir.app == "fft"
        assert base.config.protocol == "baseline"
        assert widir.config.protocol == "widir"

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            run_app("doom", widir_config(num_cores=4), 100)

    def test_determinism_across_runs(self):
        a = run_app("barnes", widir_config(num_cores=8, seed=9), 200)
        b = run_app("barnes", widir_config(num_cores=8, seed=9), 200)
        assert a.cycles == b.cycles
        assert a.stats_counters == b.stats_counters

    def test_derived_metrics_consistent(self):
        result = run_app("fft", widir_config(num_cores=8), 200)
        assert result.misses == result.read_misses + result.write_misses
        assert result.mpki == pytest.approx(
            1000.0 * result.misses / result.instructions
        )
        assert (
            result.total_memory_latency
            == result.load_latency_total + result.store_latency_total
        )
        assert 0.0 <= result.memory_stall_fraction <= 1.0


def _canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Let ``run_pair`` and the executor fork, whatever the host or an
    attached coverage tracer; lists the child pids forked."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(executor, "fork_allowed", lambda: True)
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _fail_on(monkeypatch, protocol, fail):
    """Make the executor's ``run_app`` call ``fail()`` instead of running
    ``protocol``."""
    real_run_app = executor.run_app

    def run_app(app, config, *args, **kwargs):
        if config.protocol == protocol:
            fail()
        return real_run_app(app, config, *args, **kwargs)

    monkeypatch.setattr(executor, "run_app", run_app)


class TestForkedPair:
    @pytest.mark.parametrize("app", APPS)
    def test_forked_pair_equals_two_serial_runs(self, forks, app):
        base, widir = run_pair(app, num_cores=8, **FAST)
        assert len(forks) == 1
        _assert_no_child()
        assert _canonical(base) == _canonical(
            run_app(app, baseline_config(num_cores=8, seed=42), 200)
        )
        assert _canonical(widir) == _canonical(
            run_app(app, widir_config(num_cores=8, max_wired_sharers=3, seed=42), 200)
        )

    def test_child_error_is_reraised(self, forks, monkeypatch):
        def fail():
            raise SimulationError("widir run failed on purpose")

        _fail_on(monkeypatch, "widir", fail)
        with pytest.raises(
            SimulationError, match="^widir run failed on purpose$"
        ) as raised:
            run_pair("radiosity", num_cores=8, **FAST)
        assert len(forks) == 1
        _assert_no_child()
        # The child's own frames come along as the cause.
        cause = raised.value.__cause__
        assert isinstance(cause, SimulationError)
        assert "in fail\n" in str(cause)
        assert "SimulationError: widir run failed on purpose" in str(cause)

    def test_unpicklable_child_error_carries_its_traceback(self, forks, monkeypatch):
        class LocalError(Exception):
            pass

        def fail():
            raise LocalError("cannot cross a pipe")

        _fail_on(monkeypatch, "widir", fail)
        with pytest.raises(SimulationError, match="LocalError: cannot cross a pipe"):
            run_pair("radiosity", num_cores=8, **FAST)
        _assert_no_child()

    def test_child_death_without_payload(self, forks, monkeypatch):
        _fail_on(monkeypatch, "widir", lambda: os._exit(3))
        with pytest.raises(SimulationError, match="radiosity.*wait status 768"):
            run_pair("radiosity", num_cores=8, **FAST)
        _assert_no_child()

    def test_baseline_failure_reaps_the_child(self, forks, monkeypatch):
        def fail():
            raise ValueError("baseline run failed on purpose")

        # A WiDir run that outlasts the test unless the parent stops it.
        _fail_on(monkeypatch, "widir", lambda: time.sleep(60))
        _fail_on(monkeypatch, "baseline", fail)
        started = time.monotonic()
        with pytest.raises(ValueError, match="baseline run failed on purpose"):
            run_pair("radiosity", num_cores=8, **FAST)
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        _assert_no_child()

    def test_unknown_app_raises_before_forking(self, forks):
        with pytest.raises(KeyError):
            run_pair("doom", num_cores=8, **FAST)
        # A profile runs only as the registered application of its name.
        radiosity = resolve_profile("radiosity")
        for profile in (
            dataclasses.replace(radiosity, name="doom"),
            dataclasses.replace(radiosity, phases=2),
        ):
            with pytest.raises(KeyError):
                run_pair(profile, num_cores=8, **FAST)
        with pytest.raises(KeyError):
            Executor(workers=2, use_cache=False).run_pair("doom", num_cores=8)
        assert forks == []
        _assert_no_child()

    @pytest.mark.parametrize("app", APPS)
    def test_compare_takes_the_same_fork(self, forks, app):
        """``api.compare`` (the executor's two-run plan) forks one child,
        as ``run_pair`` does, and equals the serial executor."""
        comparison = api.compare(app, cores=8, memops=200, workers=2, cache=False)
        assert len(forks) == 1
        _assert_no_child()
        serial = Executor(workers=1, use_cache=False)
        base, widir = serial.run_pair(app, num_cores=8, memops_per_core=200)
        assert _canonical(comparison.baseline) == _canonical(base)
        assert _canonical(comparison.widir) == _canonical(widir)

    def test_executor_counts_both_runs(self, forks):
        exe = Executor(workers=2, use_cache=False)
        exe.run_pair("radiosity", num_cores=8, memops_per_core=200)
        assert len(forks) == 1
        assert exe.stats.executed == 2
        assert exe.stats.sim_seconds > 0


class TestPairSelection:
    """What makes ``run_pair`` and the executor fork: each rule alone
    keeps both serial."""

    @staticmethod
    def _quiet(monkeypatch, *keep):
        """Give every rule not in ``keep`` a value that allows a fork, so
        the host's CPUs, a coverage tracer or the runner's threads decide
        nothing; forking itself raises."""
        pinned = {
            "affinity": (os, "sched_getaffinity", lambda pid: {0, 1}),
            "threads": (threading, "active_count", lambda: 1),
            "trace": (sys, "gettrace", lambda: None),
            "profile": (sys, "getprofile", lambda: None),
        }
        for rule, (owner, name, value) in pinned.items():
            if rule not in keep:
                monkeypatch.setattr(owner, name, value)
        if "monitoring" not in keep:  # Python 3.12+ only
            monkeypatch.delattr(sys, "monitoring", raising=False)

        def refuse():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", refuse)

    def _serial_pair(self):
        base, widir = run_pair("radiosity", num_cores=8, memops_per_core=100)
        assert base.config.protocol == "baseline"
        assert widir.config.protocol == "widir"
        # The executor asks the same rule for a pair and for a pool.
        exe = Executor(workers=4, use_cache=False)
        plan = ExperimentPlan()
        plan.add_pair("radiosity", num_cores=8, memops=100)
        exe.map_runs(plan)
        plan.add("fft", widir_config(num_cores=8), 100)
        exe.map_runs(plan)
        assert exe.stats.executed == 5

    def test_a_quiet_process_forks(self, monkeypatch):
        self._quiet(monkeypatch)
        assert executor.fork_allowed()
        with pytest.raises(AssertionError, match="^forked$"):
            run_pair("radiosity", num_cores=8, memops_per_core=100)
        with pytest.raises(AssertionError, match="^forked$"):
            Executor(workers=2, use_cache=False).run_pair(
                "radiosity", num_cores=8, memops_per_core=100
            )

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc"
    )
    def test_a_failed_fork_closes_its_pipe(self, monkeypatch):
        self._quiet(monkeypatch)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(AssertionError, match="^forked$"):
            executor.run_beside(dict, dict, "nothing")
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_one_cpu_is_serial(self, monkeypatch):
        self._quiet(monkeypatch, "affinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self._serial_pair()

    def test_without_an_affinity_set_every_cpu_counts(self, monkeypatch):
        """A platform with no ``sched_getaffinity`` (macOS) counts its
        CPUs, so two or more let the pair fork."""
        real_fork = os.fork
        self._quiet(monkeypatch, "affinity")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert executor.fork_allowed()
        pids = []

        def recording_fork():
            pids.append(real_fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", recording_fork)
        base, widir = run_pair("radiosity", num_cores=8, memops_per_core=100)
        assert len(pids) == 1
        _assert_no_child()
        assert (base.config.protocol, widir.config.protocol) == ("baseline", "widir")

    def test_one_cpu_without_an_affinity_set_is_serial(self, monkeypatch):
        self._quiet(monkeypatch, "affinity")
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        self._serial_pair()

    def test_default_workers_are_the_affinity_set(self, monkeypatch):
        """The pool and the campaign's local agents size themselves by the
        CPUs the process may run on, not by every CPU of the host."""
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert Executor().workers == 2

    def test_an_active_profiler_is_serial(self, monkeypatch):
        # Since Python 3.12 cProfile attaches through sys.monitoring.
        self._quiet(monkeypatch, "profile", "monitoring")
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            self._serial_pair()
        finally:
            profiler.disable()

    def test_a_tracer_is_serial(self, monkeypatch):
        self._quiet(monkeypatch, "trace")
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: None)
        try:
            self._serial_pair()
        finally:
            sys.settrace(previous)

    def test_a_second_thread_is_serial(self, monkeypatch):
        self._quiet(monkeypatch, "threads")
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            self._serial_pair()
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_a_monitoring_tool_is_serial(self, monkeypatch):
        self._quiet(monkeypatch)
        monitor = types.SimpleNamespace(
            get_tool=lambda tool: "profiler" if tool == 2 else None
        )
        monkeypatch.setattr(sys, "monitoring", monitor, raising=False)
        self._serial_pair()


class TestFigures:
    def test_table4_rows_per_app(self):
        figure = table4_mpki_characterization(apps=APPS, num_cores=8, memops=150)
        assert [row[0] for row in figure.rows] == list(APPS)
        assert all(row[1] >= 0 for row in figure.rows)
        assert "Table IV" in figure.text

    def test_figure5_fractions_normalized(self):
        figure = figure5_sharer_histogram(apps=("radiosity",), num_cores=8, memops=200)
        fractions = figure.rows[0][1:]
        assert abs(sum(fractions) - 1.0) < 1e-9 or sum(fractions) == 0.0

    def test_figure6_normalized_to_baseline(self):
        figure = figure6_mpki(apps=("radiosity",), num_cores=8, memops=200)
        app_row = figure.rows[0]
        base_total = app_row[1] + app_row[2]
        assert base_total == pytest.approx(1.0)
        assert figure.rows[-1][0] == "geomean"

    def test_table5_distribution_sums_to_one(self):
        figure = table5_hop_distribution(apps=("fft",), num_cores=16, memops=150)
        assert sum(row[1] for row in figure.rows) == pytest.approx(1.0)

    def test_table_titles_state_the_core_count(self):
        hops = table5_hop_distribution(apps=("fft",), num_cores=8, memops=150)
        sensitivity = table6_sensitivity(
            apps=("fft",), thresholds=(3,), num_cores=8, memops=150
        )
        scaling = figure10_scalability(
            apps=("fft",), core_counts=(8, 16), memops=150
        )
        assert "(Baseline, 8 cores)" in hops.text
        assert "sensitivity (8 cores)" in sensitivity.text
        assert "over 8-core Baseline" in scaling.text


class TestMotivationProbe:
    def test_probe_reports_both_metrics(self):
        result = section2c_sharing_probe(apps=["radiosity"], num_cores=32, memops=400)
        assert result.avg_sharers > 1.0
        assert 0.0 <= result.avg_reread <= 1.0
        assert "Section II-C" in result.text

    def test_wide_sharing_app_accumulates_many_sharers(self):
        wide = section2c_sharing_probe(apps=["radiosity"], num_cores=64, memops=400)
        # Update-mode sharing accumulates double-digit sharer counts on a
        # 64-core machine (the paper reports ~21 on average).
        assert wide.avg_sharers > 5
