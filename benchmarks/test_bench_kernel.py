"""The real 64-core fig10 Baseline-vs-WiDir point, run through ``run_app``.

Locks the point's determinism and records its simulated cycles in
``BENCH_harness.json`` under ``kernel``. It records no wall time: the
end-to-end benchmark (``e2ebench/``, workload ``sharing-pair``) times this
pair through ``run_pair``, which runs the two machines at once, and is the
per-layer perf ledger.
"""

from bench_config import BENCH_CORES, KERNEL_PAIR_MEMOPS


def test_bench_kernel_end_to_end_fig10(kernel_metrics):
    """One real fig10-style point: 64-core radiosity, Baseline vs WiDir.

    Runs in-process through :func:`repro.harness.runner.run_app` (no
    executor, no result cache). Locks determinism: repeating the WiDir run
    must reproduce the cycle count bit-for-bit.
    """
    from repro.config.presets import baseline_config, widir_config
    from repro.harness.runner import run_app

    # The tracked fig10 point (bench_config: 64-core radiosity pair).
    cores, memops = BENCH_CORES, KERNEL_PAIR_MEMOPS

    base = run_app("radiosity", baseline_config(num_cores=cores), memops, trace_seed=7)
    widir = run_app("radiosity", widir_config(num_cores=cores), memops, trace_seed=7)

    again = run_app("radiosity", widir_config(num_cores=cores), memops, trace_seed=7)
    assert again.cycles == widir.cycles  # deterministic run to run
    assert widir.cycles < base.cycles  # radiosity is a WiDir winner (fig10)

    kernel_metrics["fig10_widir_cycles"] = widir.cycles
    kernel_metrics["fig10_baseline_cycles"] = base.cycles
    print(f"\nfig10 64-core pair: baseline {base.cycles:,} cy vs widir {widir.cycles:,} cy")
