#!/usr/bin/env python
"""MaxWiredSharers sensitivity on one application (Table VI in miniature).

Sweeps the threshold at which a line transitions to the Wireless state and
prints execution time, collision probability, and transition counts — the
paper's Table VI trade-off: lower thresholds put more lines in wireless
mode (more collisions), higher thresholds miss wireless opportunities.

Usage::

    python examples/threshold_sweep.py [app] [cores] [memops]
"""

import sys
import time

from repro import ALL_APPS, api, baseline_config
from repro.harness.runner import run_app


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "radiosity"
    cores = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    memops = int(sys.argv[3]) if len(sys.argv) > 3 else 800
    if app not in ALL_APPS:
        raise SystemExit(f"unknown app {app!r}")

    print(f"MaxWiredSharers sweep: {app} @ {cores} cores\n")
    baseline = run_app(app, baseline_config(num_cores=cores), memops)
    print(f"Baseline: {baseline.cycles:,} cycles\n")
    print(f"{'threshold':>9} {'cycles':>10} {'speedup':>8} "
          f"{'collisions':>11} {'S->W':>6} {'W->S':>6}")

    t0 = time.time()
    sweep = api.sweep(
        "thresholds", app=app, cores=cores, thresholds=(2, 3, 4, 5),
        memops=memops,
    )
    for label in sorted(sweep.results):
        result = sweep[label]
        threshold = result.config.directory.max_wired_sharers
        print(
            f"{threshold:>9} {result.cycles:>10,} "
            f"{baseline.cycles / result.cycles:>8.3f} "
            f"{result.collision_probability:>10.2%} "
            f"{result.stats_counters.get('dir.total.s_to_w', 0):>6} "
            f"{result.stats_counters.get('dir.total.w_to_s', 0):>6}"
        )
    print(f"\n(paper Table VI: threshold 3 is the sweet spot; "
          f"collisions fall as the threshold rises)  [{time.time()-t0:.0f}s]")


if __name__ == "__main__":
    main()
