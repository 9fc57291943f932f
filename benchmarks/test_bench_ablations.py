"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not paper artifacts — these quantify the implementation's own knobs:

* UpdateCount self-invalidation threshold (2-bit vs 3-bit counter);
* jamming address precision (exact vs partial-address false positives);
* wireless payload cycles (channel bandwidth);
* eviction-notification policy is exercised implicitly by the protocol
  tests (the paper notifies on every eviction "for simplicity").
"""

from dataclasses import replace

from repro.config.presets import widir_config
from repro.config.system import DirectoryConfig, WirelessConfig
from repro.harness.runner import build_machine, drive, run_app
from repro.stats.report import format_table
from repro.workloads.generator import build_traces
from repro.workloads.profiles import APP_PROFILES

APP = "radiosity"
CORES = 32
MEMOPS = 800


def test_bench_ablation_update_threshold(benchmark):
    def sweep():
        rows = []
        for threshold in (1, 3, 7, 15):
            config = widir_config(num_cores=CORES)
            config = replace(
                config,
                directory=replace(config.directory, update_count_threshold=threshold),
            )
            result = run_app(APP, config, MEMOPS)
            rows.append(
                [
                    threshold,
                    result.cycles,
                    result.stats_counters.get("dir.total.w_joins", 0),
                    sum(
                        v
                        for k, v in result.stats_counters.items()
                        if "self_invalid" in k
                    ),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["UpdateCount threshold", "cycles", "w_joins", "self-invalidations"],
            rows,
            title="Ablation: self-invalidation aggressiveness",
        )
    )
    by_threshold = {row[0]: row for row in rows}
    # A hair-trigger counter must self-invalidate far more than a lax one.
    assert by_threshold[1][3] >= by_threshold[15][3]


def test_bench_ablation_jamming_precision(benchmark):
    def sweep():
        rows = []
        for bits, label in ((None, "exact"), (8, "8-bit match"), (4, "4-bit match")):
            config = widir_config(num_cores=CORES)
            machine, cores, _ = build_machine(config)
            if machine.wireless is not None:
                machine.wireless.jam_address_bits = bits
            traces = build_traces(APP_PROFILES[APP], CORES, MEMOPS, 0)
            drive(
                machine,
                cores,
                [(trace, None) for trace in traces],
                sum(len(trace) for trace in traces),
                label,
            )
            rows.append(
                [
                    label,
                    machine.sim.now,
                    machine.stats.get_counter("wnoc.jams"),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["jam matching", "cycles", "jam NACKs"],
            rows,
            title="Ablation: selective-jamming address precision",
        )
    )
    by_label = {row[0]: row for row in rows}
    # Coarser matching can only produce as many or more jam NACKs.
    assert by_label["4-bit match"][2] >= by_label["exact"][2]


def test_bench_ablation_wireless_bandwidth(benchmark):
    def sweep():
        rows = []
        for payload in (2, 4, 8):
            config = widir_config(num_cores=CORES)
            config = replace(
                config,
                wireless=replace(config.wireless, data_transfer_cycles=payload),
            )
            result = run_app(APP, config, MEMOPS)
            rows.append([payload, result.cycles, result.collision_probability])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["payload cycles", "cycles", "collision prob"],
            rows,
            title="Ablation: wireless channel bandwidth (payload cycles)",
        )
    )
    # Slower frames cannot make the application faster.
    assert rows[-1][1] >= rows[0][1] * 0.95
