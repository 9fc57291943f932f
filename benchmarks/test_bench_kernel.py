"""Simulator microbenchmark that times real code.

The other benchmarks in this directory regenerate paper figures; this
module times a real 64-core fig10-style Baseline-vs-WiDir pair through
``run_app``, locks its determinism, and records it in
``BENCH_harness.json`` under ``kernel``.

The end-to-end benchmark (``e2ebench/``) is the per-layer perf ledger;
this one keeps a quick reading next to the figure timings.
"""

import time

from bench_config import BENCH_CORES, KERNEL_PAIR_MEMOPS


def test_bench_kernel_end_to_end_fig10(kernel_metrics):
    """One real fig10-style point: 64-core radiosity, Baseline vs WiDir.

    Runs in-process through :func:`repro.harness.runner.run_app` (no
    executor, no result cache) so the wall seconds recorded here track the
    raw simulation kernel across PRs. Also locks determinism: repeating the
    WiDir run must reproduce the cycle count bit-for-bit.
    """
    from repro.config.presets import baseline_config, widir_config
    from repro.harness.runner import run_app

    # The tracked fig10 point (bench_config: 64-core radiosity pair).
    cores, memops = BENCH_CORES, KERNEL_PAIR_MEMOPS

    # Warm the trace-synthesis memo so the timing below is pure simulation.
    run_app("radiosity", widir_config(num_cores=cores), memops, trace_seed=7)

    start = time.perf_counter()
    base = run_app("radiosity", baseline_config(num_cores=cores), memops, trace_seed=7)
    widir = run_app("radiosity", widir_config(num_cores=cores), memops, trace_seed=7)
    pair_seconds = time.perf_counter() - start

    again = run_app("radiosity", widir_config(num_cores=cores), memops, trace_seed=7)
    assert again.cycles == widir.cycles  # deterministic run to run
    assert widir.cycles < base.cycles  # radiosity is a WiDir winner (fig10)

    kernel_metrics["fig10_pair_seconds"] = round(pair_seconds, 3)
    kernel_metrics["fig10_widir_cycles"] = widir.cycles
    kernel_metrics["fig10_baseline_cycles"] = base.cycles
    print(
        f"\nfig10 64-core pair: {pair_seconds:.3f}s wall, "
        f"baseline {base.cycles:,} cy vs widir {widir.cycles:,} cy"
    )
