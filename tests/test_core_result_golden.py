"""Golden per-core result accumulators.

The run digests cover the machine-level sums of the per-core latency
collectors, never a single core's count, min or max. These digests pin
every :class:`~repro.cpu.core.CoreResult` field of every core — finish
cycle, instructions, stall cycles, the load/store ``LatencyStat``
count/total/min/max and the latency histogram's buckets — for small live
runs and for one segmented replay. In the segmented replay each segment
restores the previous segment's snapshot, so a snapshot taken before the
core's L1-hit counts reach its collectors loses those hits here.

Regenerate deliberately with ``python -m tests.test_core_result_golden``
after an intentional model change.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

import repro.cpu.core as core_module
import repro.harness.runner as runner
from repro.config.presets import protocol_config
from repro.traces import record_app_trace, replay_trace

CORES = 16
MEMOPS = 200
TRACE_SEED = 7
SEED = 42

#: Live runs: (app, protocol). blackscholes is almost all L1 hits;
#: radiosity mixes hits with coherence misses on both machines.
LIVE_RUNS = (
    ("blackscholes", "widir"),
    ("radiosity", "baseline"),
    ("radiosity", "widir"),
)

#: The segmented replay: small chunks so ``snapshot_every=2`` cuts the
#: trace into several segments.
REPLAY_APP = "radiosity"
REPLAY_CORES = 8
REPLAY_MEMOPS = 300
REPLAY_CHUNK_RECORDS = 64
REPLAY_SNAPSHOT_EVERY = 2

GOLDEN_CORE_RESULT_DIGESTS = {
    "blackscholes-widir": "4c0e43ddc6415bbd4400d0a2b0e90124bdeadcdd85dff910352e84fe238974d2",
    "radiosity-baseline": "baf49b80a71c88304b88cb9ee582472008907245e8807c77ea5c31ae2129895a",
    "radiosity-widir": "df069cc0e7ddb3ec7cb799786069d88ba7cedb18651de70604745ef628f69096",
    "replay-segmented": "02642dda4437a0929b0cc150fd56f8e43b9217e88c493a6c38320ca260335b14",
}


def core_fields(core) -> dict:
    """Every accumulator of one core's :class:`CoreResult`."""
    result = core.result
    return {
        "node": result.node,
        "finish_cycle": result.finish_cycle,
        "instructions": result.instructions,
        "memory_stall_cycles": result.memory_stall_cycles,
        "sync_stall_cycles": result.sync_stall_cycles,
        "load_latency": _latency(result.load_latency),
        "store_latency": _latency(result.store_latency),
        "latency_hist": result.latency_hist.to_dict(),
    }


def _latency(stat) -> list:
    return [stat.count, stat.total, stat.min, stat.max]


def cores_digest(cores) -> str:
    blob = json.dumps([core_fields(core) for core in cores], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _collecting_core(sink: list):
    """A stand-in for the ``Core`` class that keeps every core it builds."""
    real = core_module.Core

    def make(*args, **kwargs):
        core = real(*args, **kwargs)
        sink.append(core)
        return core

    return make


def _live_cores(monkeypatch, app: str, protocol: str):
    cores: list = []
    monkeypatch.setattr(runner, "Core", _collecting_core(cores))
    # A machine_sink keeps the machine, so its cores stay readable after
    # the run (without one, the run releases them).
    runner.run_app(app, protocol_config(protocol, num_cores=CORES, seed=SEED),
                   MEMOPS, TRACE_SEED, machine_sink=[])
    return cores


def _replay_cores(monkeypatch, directory: Path):
    path = directory / "replay.wtr"
    record_app_trace(
        path, REPLAY_APP, REPLAY_CORES, REPLAY_MEMOPS,
        trace_seed=TRACE_SEED, chunk_records=REPLAY_CHUNK_RECORDS,
    )
    cores: list = []
    monkeypatch.setattr(runner, "Core", _collecting_core(cores))
    replay_trace(
        path,
        protocol_config("widir", num_cores=REPLAY_CORES, seed=SEED),
        snapshot_every=REPLAY_SNAPSHOT_EVERY,
        machine_sink=[],
    )
    # Every segment builds a fresh machine; the last one holds the result
    # (and is the one the sink keeps).
    assert len(cores) > REPLAY_CORES, "replay ran as a single segment"
    return cores[-REPLAY_CORES:]


def test_every_run_is_pinned():
    expected = {f"{app}-{protocol}" for app, protocol in LIVE_RUNS}
    expected.add("replay-segmented")
    assert set(GOLDEN_CORE_RESULT_DIGESTS) == expected


@pytest.mark.parametrize("app,protocol", LIVE_RUNS)
def test_live_core_results(monkeypatch, app, protocol):
    cores = _live_cores(monkeypatch, app, protocol)
    assert cores_digest(cores) == GOLDEN_CORE_RESULT_DIGESTS[f"{app}-{protocol}"]


def test_segmented_replay_core_results(monkeypatch, tmp_path):
    cores = _replay_cores(monkeypatch, tmp_path)
    assert cores_digest(cores) == GOLDEN_CORE_RESULT_DIGESTS["replay-segmented"]


def _regenerate():  # pragma: no cover - maintenance entry point
    monkeypatch = pytest.MonkeyPatch()
    try:
        for app, protocol in LIVE_RUNS:
            digest = cores_digest(_live_cores(monkeypatch, app, protocol))
            print(f'    "{app}-{protocol}": "{digest}",')
            monkeypatch.undo()
        with tempfile.TemporaryDirectory() as tmp:
            digest = cores_digest(_replay_cores(monkeypatch, Path(tmp)))
        print(f'    "replay-segmented": "{digest}",')
    finally:
        monkeypatch.undo()


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
