"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation
section via the harness functions in :mod:`repro.harness.figures` and prints
the same rows/series the paper reports. Scale knobs:

* ``REPRO_MEMOPS``   — memory references per core per run (default 2500;
  shorter runs dilute coherence effects with cold-start misses).
* ``REPRO_APPS``     — comma-separated app subset (default: a representative
  six-app set; pass ``all`` for the full 20-application suite).
* ``REPRO_CORES``    — core count for single-machine benches (default 64).
* ``REPRO_WORKERS``  — simulation worker processes for the session's
  executor (default: ``max(2, cpu count)`` so benchmark sessions always
  exercise the parallel dispatch path; set ``1`` to force the serial
  path).

The benchmarks assert only *shape* properties (who wins, monotonicity),
never absolute cycle counts — matching the reproduction contract in
DESIGN.md.

Perf telemetry: the session emits ``BENCH_harness.json`` (override the path
with ``REPRO_BENCH_PATH``; set it empty to disable) recording wall-clock per
benchmark, the session's scale and worker count, and the sections below
that e2ebench does not measure (the fig10 pair's simulated cycles, the
observability overhead bars, distributed scaling, trace replay and the
MAC comparison). The harness's end-to-end timings (the fig10 pair, a cold
figure suite, trace replay) are e2ebench's (``e2ebench/BENCHMARK.md``).
"""

import json
import os
import time
from pathlib import Path

import pytest

from bench_config import BENCH_CORES, BENCH_MEMOPS

#: Representative subset spanning the paper's behaviour classes: two big
#: WiDir winners, two mid apps, two no-sharing PARSEC apps.
DEFAULT_APPS = (
    "radiosity",
    "ocean-nc",
    "barnes",
    "water-spa",
    "blackscholes",
    "ferret",
)


def selected_apps():
    raw = os.environ.get("REPRO_APPS", "")
    if not raw:
        return DEFAULT_APPS
    if raw.strip().lower() == "all":
        from repro.workloads.profiles import ALL_APPS

        return ALL_APPS
    return tuple(name.strip() for name in raw.split(",") if name.strip())


def memops():
    return int(os.environ.get("REPRO_MEMOPS", str(BENCH_MEMOPS)))


def cores():
    return int(os.environ.get("REPRO_CORES", str(BENCH_CORES)))


def bench_workers():
    """Worker count for the benchmark session's process-wide executor.

    Unlike the library default (``REPRO_WORKERS`` else CPU count, which can
    legitimately resolve to 1 on a single-core box), benchmark sessions
    default to *at least two* workers so BENCH_harness.json always records
    the parallel fan-out path unless the user explicitly pins
    ``REPRO_WORKERS=1``.
    """
    raw = os.environ.get("REPRO_WORKERS", "")
    if raw.strip():
        return max(1, int(raw))
    return max(2, os.cpu_count() or 1)


def pytest_configure(config):
    """Install a session-wide executor honouring :func:`bench_workers`."""
    from repro.harness.executor import Executor, set_default_executor

    set_default_executor(Executor(workers=bench_workers()))


@pytest.fixture(scope="session")
def bench_apps():
    return selected_apps()


@pytest.fixture(scope="session")
def bench_memops():
    return memops()


@pytest.fixture(scope="session")
def bench_cores():
    return cores()


# ------------------------------------------------- BENCH_harness.json emitter

#: Per-benchmark wall-clock, filled by pytest_runtest_logreport.
_BENCH_TIMINGS = {}
#: Metrics from benchmarks/test_bench_kernel.py (the fig10 pair's simulated
#: cycles); lands under ``"kernel"`` in BENCH_harness.json.
_KERNEL_METRICS = {}
#: Observability-overhead metrics (enabled/disabled wall ratios) from
#: benchmarks/test_bench_obs.py; lands under ``"obs"``.
_OBS_METRICS = {}
#: Distributed-campaign scaling metrics (worker-count wall-clock bars,
#: speedup, digest identity) from benchmarks/test_bench_distributed.py;
#: lands under ``"distributed"`` and is drift-gated in CI.
_DISTRIBUTED_METRICS = {}
#: Streaming trace-replay metrics (record/scan/replay refs/s, bounded-
#: memory peaks, cold-live-over-replay ratio) from
#: benchmarks/test_bench_trace_replay.py; lands under ``"trace_replay"``
#: and CI drift-gates ``cold_live_over_replay``.
_TRACE_REPLAY_METRICS = {}
#: Cross-MAC comparison metrics (per-MAC geomean cycle ratios vs brs)
#: from benchmarks/test_bench_macs.py; lands under ``"mac"`` and is
#: drift-gated in CI.
_MAC_METRICS = {}
_SESSION_STARTED = time.time()


@pytest.fixture(scope="session")
def kernel_metrics():
    """Mutable dict benchmarks fill; emitted as the ``kernel`` section."""
    return _KERNEL_METRICS


@pytest.fixture(scope="session")
def obs_metrics():
    """Mutable dict the obs-overhead benchmark fills; emitted as ``obs``."""
    return _OBS_METRICS


@pytest.fixture(scope="session")
def distributed_metrics():
    """Mutable dict the distributed-scaling benchmark fills; emitted as
    ``distributed`` (CI drift-gates ``speedup_4x``)."""
    return _DISTRIBUTED_METRICS


@pytest.fixture(scope="session")
def trace_replay_metrics():
    """Mutable dict the trace-replay benchmark fills; emitted as
    ``trace_replay`` (CI drift-gates ``cold_live_over_replay``)."""
    return _TRACE_REPLAY_METRICS


@pytest.fixture(scope="session")
def mac_metrics():
    """Mutable dict the MAC-comparison benchmark fills; emitted as
    ``mac`` (CI drift-gates the per-MAC geomean ratios)."""
    return _MAC_METRICS


@pytest.fixture
def core_syntheses(monkeypatch):
    """A list that grows by one entry per ``build_core_trace`` call made
    during the test: a bench that repeats a ``run_app`` call clears it
    and then asserts it stayed empty, so the repeat hit the trace memo
    and timed or traced no synthesis."""
    from repro.workloads import generator

    calls = []
    real = generator.build_core_trace

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(generator, "build_core_trace", counted)
    return calls


def _bench_output_path():
    raw = os.environ.get("REPRO_BENCH_PATH")
    if raw is not None:
        return Path(raw) if raw.strip() else None  # empty => disabled
    return Path(__file__).resolve().parent.parent / "BENCH_harness.json"


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_bench" in report.nodeid:
        _BENCH_TIMINGS[report.nodeid] = {
            "seconds": round(report.duration, 4),
            "outcome": report.outcome,
        }


def pytest_sessionfinish(session, exitstatus):
    if not _BENCH_TIMINGS:
        return  # not a benchmark session; leave no artifact behind
    path = _bench_output_path()
    if path is None:
        return
    from repro.harness.executor import default_executor

    payload = {
        "schema": 1,
        "generated_unix": round(time.time(), 2),
        "session_wall_seconds": round(time.time() - _SESSION_STARTED, 2),
        "config": {
            "apps": list(selected_apps()),
            "memops": memops(),
            "cores": cores(),
            "workers": default_executor().workers,
            "cache_dir": str(default_executor().cache_dir),
            "cache_enabled": default_executor().use_cache,
        },
        "figures": dict(sorted(_BENCH_TIMINGS.items())),
    }
    if _KERNEL_METRICS:
        payload["kernel"] = dict(sorted(_KERNEL_METRICS.items()))
    if _OBS_METRICS:
        payload["obs"] = dict(sorted(_OBS_METRICS.items()))
    if _DISTRIBUTED_METRICS:
        payload["distributed"] = dict(sorted(_DISTRIBUTED_METRICS.items()))
    if _TRACE_REPLAY_METRICS:
        payload["trace_replay"] = dict(sorted(_TRACE_REPLAY_METRICS.items()))
    if _MAC_METRICS:
        payload["mac"] = dict(sorted(_MAC_METRICS.items()))
    try:
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError:  # pragma: no cover - read-only checkout
        pass
