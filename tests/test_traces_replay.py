"""Replay identity, snapshot/resume, and sharding contracts.

Three locks, in increasing strength:

1. **Live ≡ replay** — recording an application's reference stream and
   replaying it continuously produces a result digest byte-identical to
   a live ``run_app`` of the same (app, cores, memops, seed), under
   every registered protocol backend. The digests are
   additionally pinned as goldens, so the *recorded stream itself*
   cannot drift without a diff here.

2. **Snapshot/resume ≡ uninterrupted** — segmented replay is a pure
   function of (trace, config, interval); killing the process after any
   durable snapshot (simulated in-process, and with a real ``SIGKILL``
   in a subprocess) and resuming yields the same final digest as the
   never-interrupted segmented run.

3. **Cold windows** — a trace cut into barrier-safe windows tiles
   every core's chunks, each window replayed cold is deterministic, and
   a single window spanning the whole trace is digest-identical to
   continuous replay.

Segmented replay and the cold windows of ``plan_windows(trace, 2)`` are
each pinned per backend as well, so a change to the shared run path
that moved either would show here.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

import repro
from repro.coherence.backend import backend_names
from repro.config.presets import protocol_config
from repro.harness.executor import Executor, ExperimentPlan, RunRequest, run_key
from repro.harness.runner import run_app
from repro.traces import (
    TraceFormatError,
    TraceReader,
    plan_windows,
    record_app_trace,
    replay_trace,
    replay_window,
    result_digest,
)

APP = "radix"
CORES = 8
MEMOPS = 300
TRACE_SEED = 3
SEED = 42
CHUNK_RECORDS = 64

#: Continuous-replay digests per backend, equal to the live ``run_app``
#: digest of the same workload by construction (asserted below).
#: Regenerate deliberately with
#: ``python -m tests.test_traces_replay`` after an intentional protocol
#: or generator change; an unexplained diff means the recorded stream or
#: the replay path drifted from the live machine.
GOLDEN_REPLAY_DIGESTS = {
    "baseline": "957c62a1c6749ee2959762682d33faea3988afdb58468958cf60df575ad86228",
    "hybrid_update": "45b11df862d44ce949b38de4efc54b75654d2b55e8e615d7bcd591e8bb8702f1",
    "phase_priority": "33fcc214d72e1aa245aadd44776157f021e11027265f85a990885358fe0f7529",
    "widir": "9fc7f1e9380f4e6ad8d4b9bd9c8d0e87d6c392900a6da3b35edd46a3f8a9d867",
}

#: Segmented replay (``snapshot_every=SNAPSHOT_EVERY``) digests per
#: backend. Each segment restarts on a fresh machine restored from a
#: snapshot, so these differ from the continuous digests by design.
GOLDEN_SEGMENTED_DIGESTS = {
    "baseline": "75d3d3032b066f28d364a98a95f4953f4938fe59b79cdba51a07d0ea45ce775b",
    "hybrid_update": "5efdcdfa4b3cdf3ef38b8103b9ed238b498d153fb338b998bffc628cf9017162",
    "phase_priority": "402a5db9e64e9c0c1e6153b4ddf7a922e9ba98156a8c7f1ee314d4245a4b6048",
    "widir": "3cb4c75f0174b7f5686cc1f4e94b7c94c0a9b4a17dffedf37f61045211fccadf",
}

#: Cold-window digests per backend: sha256 over the comma-joined result
#: digests of every window of ``plan_windows(trace, CHUNKS_PER_WINDOW)``,
#: each replayed cold, in plan order (see :func:`_windows_digest`).
GOLDEN_WINDOW_DIGESTS = {
    "baseline": "300abdab0594a1b5d10e7889453c545008625821102e1633a5f7924fa3bf5f54",
    "hybrid_update": "ffcc98665b5df64dc257fe4d5f0145f9313cb88fdbe900244f92dbc9bfd25857",
    "phase_priority": "f5d8367611939c2a44f683a88217da5e328ce4589da1c6c08d9afc4c572d34ac",
    "widir": "6ec6f824d116b796f9b98d63b8313d232f3403a9e334c78b9ff3edac70c3f8ef",
}

SNAPSHOT_EVERY = 2
CHUNKS_PER_WINDOW = 2


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "radix.wtr"
    record_app_trace(
        path, APP, CORES, MEMOPS, trace_seed=TRACE_SEED, chunk_records=CHUNK_RECORDS
    )
    return path


def _config(protocol: str):
    return protocol_config(protocol, num_cores=CORES, seed=SEED)


def _segmented_digest(path, config) -> str:
    return result_digest(
        replay_trace(path, config, snapshot_every=SNAPSHOT_EVERY)
    )


def _windows_digest(path, config) -> str:
    digests = [
        result_digest(replay_window(path, config, window))
        for window in plan_windows(path, CHUNKS_PER_WINDOW)
    ]
    return hashlib.sha256(",".join(digests).encode("ascii")).hexdigest()


# ------------------------------------------------- live ≡ replay goldens


@pytest.mark.parametrize("protocol", backend_names())
def test_replay_matches_live_run(trace_path, protocol):
    config = _config(protocol)
    live_digest = result_digest(run_app(APP, config, MEMOPS, TRACE_SEED))
    replay_digest = result_digest(replay_trace(trace_path, config))
    assert replay_digest == live_digest
    assert replay_digest == GOLDEN_REPLAY_DIGESTS[protocol]


def test_zero_memop_run_matches_its_replay(tmp_path):
    """A run with no memory references still holds barrier and think
    records; live and replay share one event budget, so both finish."""
    path = tmp_path / "empty.wtr"
    info = record_app_trace(
        path, APP, CORES, 0, trace_seed=TRACE_SEED, chunk_records=CHUNK_RECORDS
    )
    assert info["records"] > 0
    config = _config("widir")
    live = run_app(APP, config, 0, TRACE_SEED)
    assert live.instructions > 0
    assert result_digest(live) == result_digest(replay_trace(path, config))


def test_replay_frees_each_chunk_once_its_core_refills(trace_path, monkeypatch):
    """Streaming replay keeps each core's bound chunk alive, not the
    chunks the core has finished."""
    from repro.cpu.trace import TraceChunk

    class Tracked(TraceChunk):
        __slots__ = ("__weakref__",)

    refs: list = []
    most_alive = [0]
    read_chunk = TraceReader.read_chunk

    def tracked_read_chunk(self, core, index):
        chunk = read_chunk(self, core, index)
        tracked = Tracked()
        for column in TraceChunk.__slots__:
            setattr(tracked, column, getattr(chunk, column))
        refs.append(weakref.ref(tracked))
        most_alive[0] = max(most_alive[0], sum(ref() is not None for ref in refs))
        return tracked

    with TraceReader(trace_path) as reader:
        assert min(reader.num_chunks(core) for core in range(CORES)) > 2
    monkeypatch.setattr(TraceReader, "read_chunk", tracked_read_chunk)
    replay_trace(trace_path, _config("widir"))
    # Each core's bound chunk, the chunk being read, and the last core's
    # first chunk still named by the attach loop.
    assert most_alive[0] <= CORES + 2


def test_replay_rejects_core_count_mismatch(trace_path):
    with pytest.raises(TraceFormatError):
        replay_trace(trace_path, protocol_config("widir", num_cores=4, seed=SEED))


def test_replay_rejects_wrong_trace_id(trace_path):
    with pytest.raises(TraceFormatError):
        replay_trace(trace_path, _config("widir"), expect_trace_id="0" * 16)


# --------------------------------------------------- snapshot and resume


def test_segmented_replay_is_deterministic(trace_path):
    config = _config("widir")
    segmented = _segmented_digest(trace_path, config)
    assert _segmented_digest(trace_path, config) == segmented


@pytest.mark.parametrize("protocol", backend_names())
def test_segmented_replay_matches_golden(trace_path, protocol):
    digest = _segmented_digest(trace_path, _config(protocol))
    assert digest == GOLDEN_SEGMENTED_DIGESTS[protocol]


def _die_after_second_snapshot(trace_path, config, snap, monkeypatch):
    """Replay with durable snapshots and die right after persisting one."""
    import repro.traces.replay as replay_mod

    class Killed(BaseException):
        pass

    original = replay_mod.save_snapshot

    def save_then_die(path, snapshot):
        original(path, snapshot)
        if snapshot["progress"]["segment"] >= 2:
            raise Killed()

    monkeypatch.setattr(replay_mod, "save_snapshot", save_then_die)
    with pytest.raises(Killed):
        replay_trace(trace_path, config, snapshot_every=2, snapshot_path=snap)
    monkeypatch.setattr(replay_mod, "save_snapshot", original)
    assert snap.exists()


def test_resume_from_durable_snapshot_matches_uninterrupted(
    trace_path, tmp_path, monkeypatch
):
    """In-process kill: die right after persisting a snapshot, resume."""
    config = _config("widir")
    uninterrupted = result_digest(
        replay_trace(trace_path, config, snapshot_every=2)
    )
    snap = tmp_path / "resume.snap"
    _die_after_second_snapshot(trace_path, config, snap, monkeypatch)
    resumed = replay_trace(
        trace_path, config, snapshot_every=2, snapshot_path=snap
    )
    assert result_digest(resumed) == uninterrupted
    assert not snap.exists()  # completed runs clean up their snapshot


def test_resume_from_a_snapshot_with_pre_1_6_stats_sections(
    trace_path, tmp_path, monkeypatch
):
    """A snapshot written before 1.6 also carries the registry's latency
    and exact-histogram sections, which nothing read; it still resumes."""
    config = _config("widir")
    snap = tmp_path / "resume.snap"
    _die_after_second_snapshot(trace_path, config, snap, monkeypatch)
    legacy = json.loads(snap.read_text())
    legacy["stats"]["latencies"] = []
    legacy["stats"]["exact"] = [["widir.sharers_per_update_exact", [[2, 5]]]]
    snap.write_text(json.dumps(legacy))
    resumed = replay_trace(
        trace_path, config, snapshot_every=2, snapshot_path=snap
    )
    assert result_digest(resumed) == result_digest(
        replay_trace(trace_path, config, snapshot_every=2)
    )


def test_snapshot_rejects_mismatched_trace_or_interval(
    trace_path, tmp_path, monkeypatch
):
    import repro.traces.replay as replay_mod

    config = _config("widir")
    snap = tmp_path / "stale.snap"

    class Killed(BaseException):
        pass

    original = replay_mod.save_snapshot

    def save_then_die(path, snapshot):
        original(path, snapshot)
        raise Killed()

    monkeypatch.setattr(replay_mod, "save_snapshot", save_then_die)
    with pytest.raises(Killed):
        replay_trace(trace_path, config, snapshot_every=2, snapshot_path=snap)
    monkeypatch.setattr(replay_mod, "save_snapshot", original)

    # Wrong interval: the snapshot encodes snapshot_every=2.
    with pytest.raises(TraceFormatError):
        replay_trace(trace_path, config, snapshot_every=3, snapshot_path=snap)
    # Wrong trace: re-record with a different seed at a new path.
    other = tmp_path / "other.wtr"
    record_app_trace(
        other, APP, CORES, MEMOPS, trace_seed=TRACE_SEED + 1,
        chunk_records=CHUNK_RECORDS,
    )
    with pytest.raises(TraceFormatError):
        replay_trace(other, config, snapshot_every=2, snapshot_path=snap)


_CHILD_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    import repro.traces.replay as replay
    from repro.config.presets import protocol_config

    phase, trace, snap = sys.argv[1], sys.argv[2], sys.argv[3]
    config = protocol_config("widir", num_cores={cores}, seed={seed})

    if phase == "kill":
        original = replay.save_snapshot

        def save_then_kill(path, snapshot):
            original(path, snapshot)
            if snapshot["progress"]["segment"] >= 2:
                os.kill(os.getpid(), signal.SIGKILL)

        replay.save_snapshot = save_then_kill

    result = replay.replay_trace(
        trace, config, snapshot_every=2,
        snapshot_path=(None if phase == "full" else snap),
    )
    print(replay.result_digest(result))
    """
)


def test_sigkill_resume_identity_subprocess(trace_path, tmp_path):
    """Real SIGKILL mid-trace, then resume: digest equals uninterrupted."""
    script = _CHILD_SCRIPT.format(cores=CORES, seed=SEED)
    snap = tmp_path / "killed.snap"
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")

    def child(phase):
        return subprocess.run(
            [sys.executable, "-c", script, phase, str(trace_path), str(snap)],
            capture_output=True, text=True, env=env,
        )

    full = child("full")
    assert full.returncode == 0, full.stderr
    uninterrupted = full.stdout.strip()

    killed = child("kill")
    assert killed.returncode == -signal.SIGKILL
    assert snap.exists(), "no durable snapshot survived the SIGKILL"

    resumed = child("resume")
    assert resumed.returncode == 0, resumed.stderr
    assert resumed.stdout.strip() == uninterrupted
    assert not snap.exists()


# ------------------------------------------------------- window sharding


def test_full_window_equals_continuous_replay(trace_path):
    config = _config("widir")
    continuous = result_digest(replay_trace(trace_path, config))
    with TraceReader(trace_path) as reader:
        window = [(0, reader.num_chunks(core)) for core in range(CORES)]
    cold = replay_window(trace_path, config, window)
    assert result_digest(cold) == continuous


def test_windows_tile_the_trace_and_replay_deterministically(trace_path):
    config = _config("widir")
    windows = plan_windows(trace_path, CHUNKS_PER_WINDOW)
    assert len(windows) >= 2, "trace too small to shard — raise MEMOPS"
    with TraceReader(trace_path) as reader:
        chunks = [reader.num_chunks(core) for core in range(CORES)]
    # Windows tile the whole trace per core, contiguously.
    for core in range(CORES):
        spans = [tuple(window[core]) for window in windows]
        assert spans[0][0] == 0
        assert spans[-1][1] == chunks[core]
        for left, right in zip(spans, spans[1:]):
            assert left[1] == right[0]

    # Recomputing any window reproduces its digest (cold start, no state).
    first = replay_window(trace_path, config, windows[0])
    again = replay_window(trace_path, config, windows[0])
    assert result_digest(again) == result_digest(first)


@pytest.mark.parametrize("protocol", backend_names())
def test_cold_windows_match_golden(trace_path, protocol):
    digest = _windows_digest(trace_path, _config(protocol))
    assert digest == GOLDEN_WINDOW_DIGESTS[protocol]


def test_plan_windows_respects_max_windows(trace_path):
    windows = plan_windows(trace_path, 1, max_windows=2)
    assert 1 <= len(windows) <= 2


# ------------------------------------------- harness and API integration


def test_run_request_key_ignores_trace_path_but_pins_trace_id(trace_path):
    config = _config("widir")
    with TraceReader(trace_path) as reader:
        trace_id = reader.trace_id
    generator = RunRequest(APP, config, MEMOPS, TRACE_SEED)
    # Pre-trace cache-key shape is untouched for generator-driven runs.
    assert set(generator.canonical()) == {
        "schema", "app", "config", "memops", "trace_seed",
    }
    here = RunRequest(APP, config, 0, trace_path=str(trace_path), trace_id=trace_id)
    elsewhere = RunRequest(
        APP, config, 0, trace_path="/moved/copy.wtr", trace_id=trace_id
    )
    assert run_key(here) == run_key(elsewhere)
    rerecorded = RunRequest(
        APP, config, 0, trace_path=str(trace_path), trace_id="f" * 16
    )
    assert run_key(rerecorded) != run_key(here)
    windowed = RunRequest(
        APP, config, 0, trace_path=str(trace_path), trace_id=trace_id,
        trace_window=((0, 1),) * CORES,
    )
    assert run_key(windowed) != run_key(here)


def test_executor_replays_trace_requests(trace_path, tmp_path):
    config = _config("widir")
    plan = ExperimentPlan()
    index = plan.add_trace(trace_path, config)
    request = plan.requests[index]
    with TraceReader(trace_path) as reader:
        assert request.trace_id == reader.trace_id
        assert request.app == APP
    executor = Executor(workers=1, cache_dir=tmp_path / "cache", use_cache=True)
    (result,) = executor.map_runs(plan)
    assert result_digest(result) == result_digest(replay_trace(trace_path, config))
    # Second pass is served from the memo cache, not re-simulated.
    (cached,) = executor.map_runs(plan)
    assert result_digest(cached) == result_digest(result)
    assert executor.stats.cache_hits >= 1


def test_api_record_and_replay_roundtrip(tmp_path):
    from repro import api

    out = tmp_path / "api.wtr"
    info = api.record_trace(APP, out=out, cores=4, memops=120, trace_seed=1)
    assert isinstance(info, api.TraceFileInfo)
    assert info.num_cores == 4
    assert info.trace_id
    assert api.validate_trace(out).details["ok"] is True
    assert api.trace_info(out).trace_id == info.trace_id

    result = api.replay(out, protocol="widir", seed=SEED)
    direct = replay_trace(out, protocol_config("widir", num_cores=4, seed=SEED))
    assert result_digest(result) == result_digest(direct)


def _regenerate():  # pragma: no cover - maintenance entry point
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "radix.wtr"
        record_app_trace(
            path, APP, CORES, MEMOPS,
            trace_seed=TRACE_SEED, chunk_records=CHUNK_RECORDS,
        )
        for name, digest_of in (
            ("GOLDEN_REPLAY_DIGESTS", lambda p, c: result_digest(replay_trace(p, c))),
            ("GOLDEN_SEGMENTED_DIGESTS", _segmented_digest),
            ("GOLDEN_WINDOW_DIGESTS", _windows_digest),
        ):
            print(f"{name} = {{")
            for protocol in backend_names():
                digest = digest_of(path, _config(protocol))
                print(f'    "{protocol}": "{digest}",')
            print("}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
