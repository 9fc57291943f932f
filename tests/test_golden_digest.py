"""Golden-run determinism digests.

These tests lock the *simulated behaviour* of the machine: a fixed-seed
Baseline (MESI) run and a fixed-seed WiDir run must produce exactly the
same statistics — every counter, cycle count, histogram bin, and latency
accumulator — as the tree they were recorded on. The Baseline digest was
computed on the pre-fast-path tree (PR 1 seed state); the WiDir digests
were re-recorded when the wireless channel came to run at most one
contention round per cycle. They are hardcoded, so any perf work that
changes simulated behaviour (rather than just wall-clock) fails here
first.

The digest covers the full sorted ``StatsRegistry`` counter map plus the
headline result fields, serialized canonically and hashed with sha256.
Floats go through ``repr`` (exact round-trip for IEEE doubles), so the
digest is stable across processes and platforms for integer-dominated
stats.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.config.presets import baseline_config, widir_config
from repro.harness.runner import run_app

#: Fixed workload for the golden runs: small enough to be quick in tier-1,
#: large enough to exercise every protocol path (upgrades, S->W, W->S,
#: recalls, wireless RMWs, evictions).
GOLDEN_APP = "radiosity"
GOLDEN_CORES = 16
GOLDEN_MEMOPS = 400
GOLDEN_SEED = 42
GOLDEN_TRACE_SEED = 7

#: sha256 digests recorded on the pre-change tree (see module docstring).
GOLDEN_BASELINE_DIGEST = (
    "e48bcd643073a68d41eaad7f6323077efddd30a5cb4e93b156b2288a3823f5b1"
)
GOLDEN_WIDIR_DIGEST = (
    "95ba9400b2019180b2c6264779ba7addbc3c25b248562d5607661e7efa9824bd"
)

#: Threshold sweep: the same WiDir workload with ``MaxWiredSharers`` forced
#: to the extremes. mws=1 pushes nearly every shared line into the W state
#: (fallback path digest-locked); mws=3 is the preset default, so its digest
#: equals GOLDEN_WIDIR_DIGEST *by construction* — keeping it in the sweep
#: locks the S->W re-entry path explicitly and catches accidental drift of
#: the preset default itself.
GOLDEN_WIDIR_THRESHOLD_DIGESTS = {
    1: "7495f50b5654821b18e1223751e44f1abc9cfe5d434a762157462d381564b9d6",
    3: "95ba9400b2019180b2c6264779ba7addbc3c25b248562d5607661e7efa9824bd",
}


def golden_digest(result) -> str:
    """Canonical sha256 digest of one run's observable behaviour."""
    payload = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "memory_stall_cycles": result.memory_stall_cycles,
        "sync_stall_cycles": result.sync_stall_cycles,
        "load_latency_total": result.load_latency_total,
        "store_latency_total": result.store_latency_total,
        "read_misses": result.read_misses,
        "write_misses": result.write_misses,
        "wireless_writes": result.wireless_writes,
        "sharer_histogram": dict(sorted(result.sharer_histogram.items())),
        "hop_histogram": dict(sorted(result.hop_histogram.items())),
        "collision_probability": repr(result.collision_probability),
        "stats_counters": dict(sorted(result.stats_counters.items())),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run(config) -> str:
    result = run_app(
        GOLDEN_APP, config, memops_per_core=GOLDEN_MEMOPS,
        trace_seed=GOLDEN_TRACE_SEED,
    )
    return golden_digest(result)


def test_golden_baseline_digest():
    digest = _run(
        baseline_config(num_cores=GOLDEN_CORES, seed=GOLDEN_SEED)
    )
    assert digest == GOLDEN_BASELINE_DIGEST, (
        "Baseline (MESI) golden run diverged from the recorded digest: "
        f"{digest}. The fast path must be bit-identical in simulated "
        "behaviour; if a change is *intentional*, re-record the digest."
    )


def test_golden_widir_digest():
    digest = _run(widir_config(num_cores=GOLDEN_CORES, seed=GOLDEN_SEED))
    assert digest == GOLDEN_WIDIR_DIGEST, (
        "WiDir golden run diverged from the recorded digest: "
        f"{digest}. The fast path must be bit-identical in simulated "
        "behaviour; if a change is *intentional*, re-record the digest."
    )


@pytest.mark.parametrize(
    "mws", sorted(GOLDEN_WIDIR_THRESHOLD_DIGESTS), ids=lambda m: f"mws{m}"
)
def test_golden_widir_threshold_sweep_digest(mws):
    """Digest-lock the W-state fallback (mws=1) and re-entry (mws=3) paths,
    not just the default config."""
    cfg = widir_config(num_cores=GOLDEN_CORES, seed=GOLDEN_SEED)
    cfg = replace(
        cfg,
        directory=replace(cfg.directory, max_wired_sharers=mws),
    )
    digest = _run(cfg)
    assert digest == GOLDEN_WIDIR_THRESHOLD_DIGESTS[mws], (
        f"WiDir MaxWiredSharers={mws} golden run diverged from the recorded "
        f"digest: {digest}. The threshold fallback/re-entry paths must be "
        "bit-identical; if a change is *intentional*, re-record the digest."
    )


def test_golden_widir_default_matches_threshold_entry():
    """The preset default (mws=3) is pinned by the sweep table; if the
    preset ever changes its default, this cross-check fires before the
    digest silently moves to a different table row."""
    cfg = widir_config(num_cores=GOLDEN_CORES, seed=GOLDEN_SEED)
    assert cfg.directory.max_wired_sharers == 3
    assert GOLDEN_WIDIR_THRESHOLD_DIGESTS[3] == GOLDEN_WIDIR_DIGEST


def test_golden_digest_is_repeatable_in_process():
    """Two identical runs in one process digest identically (no hidden
    global state leaks between Manycore instances)."""
    config = widir_config(num_cores=8, seed=3)
    first = run_app(GOLDEN_APP, config, memops_per_core=120, trace_seed=1)
    second = run_app(GOLDEN_APP, config, memops_per_core=120, trace_seed=1)
    assert golden_digest(first) == golden_digest(second)
