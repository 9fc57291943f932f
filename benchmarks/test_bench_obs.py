"""Observability-layer overhead benchmark.

The tracing subsystem (:mod:`repro.obs`) promises two things:

* **disabled** (the default) it costs one attribute load + ``is None``
  test per hook site — indistinguishable from the pre-instrumentation
  simulator within measurement noise;
* **enabled** it stays cheap enough to leave on for debugging sessions:
  under 25% wall-clock overhead on a real coherence-heavy run (the bar
  is relative to the untraced run; see MAX_ENABLED_OVERHEAD).

This module measures the enabled cost, and the noise floor the disabled
promise is judged within, on an identical in-process run (same app, same
seeds, same machine — tracing is digest-neutral so the simulated work is
bit-identical) and records the ratios under ``"obs"`` in
``BENCH_harness.json``.

Timing methodology: the enabled run and two disabled ones run in
strictly alternating rounds, and each bar is checked on the median of
per-round ratios. A scheduling burst that slows one run moves one round's
ratio, which the median passes over; it would move a best-of-N minimum of
one population outright. The "disabled" bar compares two *identical*
disabled populations, so it bounds the measurement's own noise: the
smallest difference between two populations this bench resolves. It
cannot see a cost that every dormant hook site pays, since both
populations pay it; the hooks cannot be compiled out, so there is no
hook-free run to compare with.
"""

import gc
import time
from dataclasses import replace
from statistics import median

from repro.config.presets import widir_config
from repro.config.system import ObsConfig
from repro.harness.runner import run_app

_APP = "radiosity"
_CORES = 16
#: Long enough that fixed per-run noise (timer granularity, allocator
#: jitter) stays well under the A/B noise bar.
_MEMOPS = 8000
_ROUNDS = 9

#: Acceptance bars (see docs/OBSERVABILITY.md). The enabled bar is a
#: *relative* bound: the absolute hook cost is ~35 ms on this workload,
#: which against the cohort kernel's untraced run reads ~x1.16.
MAX_ENABLED_OVERHEAD = 1.25
#: Standalone on bare metal this measures x1.00, but the two identical
#: disabled populations carry the box's jitter. On a shared 2-vCPU guest
#: one run of this workload read 0.42-0.86 s within a session, and two
#: back-to-back runs differed by 13% (the standard deviation of their
#: log ratio). The median of per-round ratios passes over a burst that
#: slows one run, but still moves by several percent when the host stays
#: noisy through the whole bench; the bar carries 8% headroom for that.
MAX_DISABLED_NOISE = 1.08


def _timed_run(config):
    # Isolate each timed run from the previous one's garbage: a traced run
    # allocates span/event records whose collection would otherwise be paid
    # by whichever run happens to follow it in the interleave. The cyclic
    # collector is held off for the timed region so its pauses land in
    # neither population.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_app(_APP, config, _MEMOPS, trace_seed=5)
        return time.perf_counter() - start, result
    finally:
        gc.enable()


def test_obs_overhead(obs_metrics, core_syntheses):
    base_cfg = widir_config(num_cores=_CORES, seed=42)
    off_cfg = replace(base_cfg, obs=ObsConfig(enabled=False))
    on_cfg = replace(base_cfg, obs=ObsConfig(enabled=True))

    # Warm-up: populate the trace-synthesis memo and import caches so the
    # first measured round is not paying one-time costs.
    _timed_run(off_cfg)
    core_syntheses.clear()

    times = {"off_a": [], "off_b": [], "on": []}
    reference_cycles = None
    # The order rotates every round so no variant owns a fixed position in
    # the interleave — a fixed order lets position-correlated machine noise
    # (turbo ramps, timer ticks) masquerade as a population difference.
    order = [("off_a", off_cfg), ("on", on_cfg), ("off_b", off_cfg)]
    for _ in range(_ROUNDS):
        for key, cfg in order:
            seconds, result = _timed_run(cfg)
            times[key].append(seconds)
            if reference_cycles is None:
                reference_cycles = result.cycles
            # Tracing must not change the simulation (digest neutrality).
            assert result.cycles == reference_cycles
        order.append(order.pop(0))
    # Every timed round ran on the warm-up's traces: a round that
    # synthesized would time synthesis, not the hooks.
    assert core_syntheses == [], "a timed round synthesized its traces"

    rounds = list(zip(times["off_a"], times["off_b"], times["on"]))
    enabled_ratio = median(on / ((a + b) / 2) for a, b, on in rounds)
    a_over_b = median(a / b for a, b, _ in rounds)
    noise_ratio = max(a_over_b, 1 / a_over_b)
    disabled = min(times["off_a"] + times["off_b"])
    enabled = min(times["on"])

    obs_metrics.update(
        {
            "app": _APP,
            "cores": _CORES,
            "memops": _MEMOPS,
            "rounds": _ROUNDS,
            "disabled_seconds": round(disabled, 4),
            "enabled_seconds": round(enabled, 4),
            "enabled_overhead_ratio": round(enabled_ratio, 4),
            "disabled_noise_ratio": round(noise_ratio, 4),
            "bars": {
                "enabled_max": MAX_ENABLED_OVERHEAD,
                "disabled_max": MAX_DISABLED_NOISE,
            },
        }
    )
    print(
        f"\nobs overhead: disabled {disabled:.3f}s, enabled {enabled:.3f}s "
        f"(median round x{enabled_ratio:.3f}); disabled A/B noise "
        f"x{noise_ratio:.3f}"
    )
    assert enabled_ratio < MAX_ENABLED_OVERHEAD, (
        f"tracing enabled costs x{enabled_ratio:.3f} "
        f"(bar: x{MAX_ENABLED_OVERHEAD})"
    )
    assert noise_ratio < MAX_DISABLED_NOISE, (
        f"disabled A/B populations differ by x{noise_ratio:.3f} "
        f"(bar: x{MAX_DISABLED_NOISE}); the two identical populations "
        f"no longer time alike"
    )
