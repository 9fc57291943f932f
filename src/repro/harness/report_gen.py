"""Markdown report generation from saved sweep results.

Turns a dictionary of labelled :class:`~repro.harness.runner.SimulationResult`
objects (from :mod:`repro.harness.sweeps`, or loaded back with
:meth:`~repro.harness.runner.SimulationResult.from_dict`) into a
self-contained Markdown report with the same sections EXPERIMENTS.md uses:
headline speedups, MPKI comparisons, wireless activity, and energy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.harness.runner import SimulationResult


def _pairs(results: Dict[str, SimulationResult]) -> List[
    Tuple[str, SimulationResult, SimulationResult]
]:
    """Yield (app, baseline, widir) triples for every complete pair."""
    by_app: Dict[str, Dict[str, SimulationResult]] = {}
    for result in results.values():
        by_app.setdefault(result.app, {})[result.config.protocol] = result
    out = []
    for app in sorted(by_app):
        entry = by_app[app]
        if "baseline" in entry and "widir" in entry:
            out.append((app, entry["baseline"], entry["widir"]))
    return out


def _md_table(headers: List[str], rows: List[List[str]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def generate_report(
    results: Dict[str, SimulationResult], title: str = "WiDir sweep report"
) -> str:
    """Render a Markdown report for a protocol-comparison sweep."""
    pairs = _pairs(results)
    sections = [f"# {title}", ""]

    if pairs:
        machine = pairs[0][1].config
        sections.append(
            f"Machine: {machine.num_cores} cores, MaxWiredSharers="
            f"{pairs[0][2].config.directory.max_wired_sharers}, "
            f"seed {machine.seed}."
        )
        sections.append("")

        sections.append("## Execution time")
        rows = []
        for app, base, widir in pairs:
            rows.append(
                [
                    app,
                    f"{base.cycles:,}",
                    f"{widir.cycles:,}",
                    f"{base.cycles / max(1, widir.cycles):.3f}x",
                ]
            )
        sections.append(
            _md_table(["app", "Baseline cycles", "WiDir cycles", "speedup"], rows)
        )
        sections.append("")

        sections.append("## L1 misses per kilo-instruction")
        rows = []
        for app, base, widir in pairs:
            ratio = widir.mpki / base.mpki if base.mpki else 1.0
            rows.append(
                [app, f"{base.mpki:.2f}", f"{widir.mpki:.2f}", f"{ratio:.2f}"]
            )
        sections.append(
            _md_table(["app", "Baseline MPKI", "WiDir MPKI", "ratio"], rows)
        )
        sections.append("")

        sections.append("## Wireless activity (WiDir)")
        rows = []
        for app, _base, widir in pairs:
            counters = widir.stats_counters
            rows.append(
                [
                    app,
                    f"{widir.wireless_writes:,}",
                    f"{widir.collision_probability:.1%}",
                    str(counters.get("dir.total.s_to_w", 0)),
                    str(counters.get("dir.total.w_to_s", 0)),
                    str(counters.get("dir.total.w_joins", 0)),
                ]
            )
        sections.append(
            _md_table(
                ["app", "wireless writes", "collision p", "S→W", "W→S", "joins"],
                rows,
            )
        )
        sections.append("")

        sections.append("## Energy")
        rows = []
        for app, base, widir in pairs:
            ratio = widir.energy.total / base.energy.total if base.energy.total else 1.0
            share = (
                widir.energy.wnoc / widir.energy.total if widir.energy.total else 0.0
            )
            rows.append([app, f"{ratio:.3f}", f"{share:.1%}"])
        sections.append(
            _md_table(["app", "WiDir/Baseline energy", "WNoC share"], rows)
        )
        sections.append("")

    unpaired = len(results) - 2 * len(pairs)
    if unpaired:
        sections.append(f"_{unpaired} unpaired result(s) omitted._")
    return "\n".join(sections) + "\n"
