"""Streaming trace-replay benchmark (ISSUE 9 acceptance gate).

Records one large canonical trace (``REPRO_TRACE_REFS`` total records,
default 10M — the acceptance floor), then measures the three trace-path
throughputs and the memory contract:

* **record** — generator → chunked/compressed file, refs/s;
* **scan** — full-file streaming decompress + CRC walk, refs/s;
* **replay** — the big trace driven end-to-end through the machine,
  refs/s (the headline ``trace_replay`` lane in BENCH_harness.json).

Memory boundedness is asserted two ways, both machine-portable:

* the big file's streaming scan runs under ``tracemalloc`` and its peak
  must stay within a few chunks' worth of bytes — O(chunk), not O(trace);
* replay peak is compared against a live ``run_app`` of the *identical*
  workload: the machine's own footprint (caches, directory, touched
  memory image) is common to both sides, so replay may only add O(chunk)
  of reader state on top — never a resident copy of the trace.

The drift-gated ratio is ``cold_live_over_replay``: the wall seconds of a
*cold* live ``run_app`` divided by the wall seconds of a continuous
replay of the identical workload, both measured in the same session on
the same box. The live run is the first to use its traces, so it pays
trace synthesis and the replay does not; a value above 1 means replay is
*faster*. (The replay digest is asserted equal to the live digest, so
the ratio always compares identical simulated work.) CI fails when the
ratio falls below 0.8x the committed BENCH_harness.json value. Faster
synthesis shrinks the live side and so lowers the ratio without any
change to replay; re-baseline the committed value when it does.
"""

import os
import time
import tracemalloc

from repro.config.presets import protocol_config
from repro.harness.runner import run_app
from repro.traces import (
    TraceReader,
    record_app_trace,
    replay_trace,
    result_digest,
    validate_trace,
)

#: Total records in the big trace; the committed baseline uses the 10M
#: acceptance floor, CI's bench lane shrinks it to fit the job budget.
TRACE_REFS = int(os.environ.get("REPRO_TRACE_REFS", "10000000"))

_APP = "radiosity"
_CORES = 16
_SEED = 42
#: The generator emits ~1.85 records (thinks/barriers included) per
#: memory reference for radiosity; sized so total records >= TRACE_REFS.
_RECORDS_PER_MEMOP = 1.8


def _memops_for(records_target: int) -> int:
    return max(200, int(records_target / _CORES / _RECORDS_PER_MEMOP) + 1)


def _scan(path) -> int:
    records = 0
    with TraceReader(path) as reader:
        for core in range(reader.num_cores):
            for chunk in reader.iter_core(core):
                records += len(chunk.kinds)
    return records


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    tracemalloc.reset_peak()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_bench_trace_replay(tmp_path, trace_replay_metrics):
    config = protocol_config("widir", num_cores=_CORES, seed=_SEED)

    # ---------------------------------------------------- the big trace
    big = tmp_path / "big.wtr"
    t0 = time.perf_counter()
    info = record_app_trace(
        big, _APP, _CORES, _memops_for(TRACE_REFS), trace_seed=1
    )
    record_seconds = time.perf_counter() - t0
    assert info["records"] >= TRACE_REFS, (
        f"trace has {info['records']:,} records, floor is {TRACE_REFS:,}"
    )

    # Streaming scan of every chunk under tracemalloc: O(chunk) reading.
    chunk_bytes = info["chunk_records"] * 26  # RECORD_BYTES
    tracemalloc.start()
    tracemalloc.reset_peak()
    t0 = time.perf_counter()
    scanned = _scan(big)
    scan_seconds = time.perf_counter() - t0
    _, scan_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert scanned == info["records"]
    # A chunk decompresses through numpy record arrays and python-list
    # columns (~10x the raw record bytes); 64 chunks of slack is still
    # five orders of magnitude below O(trace) at the 10M floor.
    scan_cap = 64 * 10 * chunk_bytes
    assert scan_peak < scan_cap, (
        f"streaming scan peaked at {scan_peak / 1e6:.1f} MB "
        f"(cap {scan_cap / 1e6:.1f} MB) — reading is not O(chunk)"
    )

    # Full replay of the big trace through the machine (no tracemalloc:
    # the probe itself would dominate the refs/s measurement).
    t0 = time.perf_counter()
    big_result = replay_trace(big, config)
    replay_seconds = time.perf_counter() - t0
    assert big_result.cycles > 0
    replay_refs_per_s = info["records"] / replay_seconds

    # ------------------------- replay vs live (wall gated, memory cap)
    live_trace = tmp_path / "live.wtr"
    live_memops = _memops_for(max(100_000, TRACE_REFS // 16))
    record_app_trace(live_trace, _APP, _CORES, live_memops, trace_seed=3)
    t0 = time.perf_counter()
    live = run_app(_APP, config, live_memops, 3)
    live_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    replayed = replay_trace(live_trace, config)
    replay_small_seconds = time.perf_counter() - t0
    assert result_digest(replayed) == result_digest(live), (
        "cold_live_over_replay compared different work: digests diverge"
    )
    cold_live_over_replay = live_seconds / replay_small_seconds

    # Identical workload, identical machine footprint on both sides: the
    # replay side may only add O(chunk) of reader state, so its peak must
    # track the live peak — a resident trace copy would blow straight
    # past this.
    peak_live = _peak_bytes(lambda: run_app(_APP, config, live_memops, 3))
    peak_replay = _peak_bytes(lambda: replay_trace(live_trace, config))
    assert peak_replay < 1.3 * peak_live + scan_cap, (
        f"replay peaked at {peak_replay / 1e6:.1f} MB vs live "
        f"{peak_live / 1e6:.1f} MB — replay memory is not O(machine + chunk)"
    )

    assert validate_trace(big)["ok"] is True

    print(
        f"\ntrace replay ({info['records']:,} records, "
        f"{info['file_bytes'] / 1e6:.1f} MB on disk, "
        f"{info['compression_ratio']:.1f}x compression):"
    )
    print(
        f"  record : {record_seconds:7.2f}s "
        f"({info['records'] / record_seconds:>12,.0f} refs/s)"
    )
    print(
        f"  scan   : {scan_seconds:7.2f}s "
        f"({scanned / scan_seconds:>12,.0f} refs/s, "
        f"peak {scan_peak / 1e6:.1f} MB)"
    )
    print(
        f"  replay : {replay_seconds:7.2f}s "
        f"({replay_refs_per_s:>12,.0f} refs/s)"
    )
    print(
        f"  memory : live {peak_live / 1e6:.1f} MB, "
        f"replay {peak_replay / 1e6:.1f} MB; "
        f"cold_live_over_replay {cold_live_over_replay:.2f}x "
        f"(live {live_seconds:.2f}s, replay {replay_small_seconds:.2f}s)"
    )

    trace_replay_metrics.update(
        {
            "records": info["records"],
            "file_bytes": info["file_bytes"],
            "compression_ratio": info["compression_ratio"],
            "record_refs_per_s": round(info["records"] / record_seconds),
            "scan_refs_per_s": round(scanned / scan_seconds),
            "replay_refs_per_s": round(replay_refs_per_s),
            "replay_wall_seconds": round(replay_seconds, 3),
            "scan_peak_mb": round(scan_peak / 1e6, 2),
            "live_peak_mb": round(peak_live / 1e6, 2),
            "replay_peak_mb": round(peak_replay / 1e6, 2),
            "cold_live_over_replay": round(cold_live_over_replay, 3),
            "live_digest_identical": True,
            "cores": _CORES,
        }
    )
