"""Per-layer numbers from one traced repetition.

Two sources, both read from outside the simulator:

* a cProfile of the repetition, whose self time is grouped by the
  ``repro`` package that defines each function, and whose cumulative time
  at a few public entry points gives the boundary times;
* the ``SimulationResult`` counters of the repetition's runs, summed.
"""

import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, Optional

#: Per-controller main-memory counters (``mem0.reads``, ``mem3.writes``).
_MEMORY_CONTROLLER = re.compile(r"mem\d+\.(reads|writes)")

LAYERS = (
    "engine",
    "cpu",
    "coherence",
    "mem",
    "noc",
    "wireless",
    "workloads",
    "traces",
    "harness",
    "stats",
    "system",
    "other",
)

#: Boundary metric -> (defining file, function) whose cumulative time it is.
BOUNDARIES = {
    "workloads.build_traces_s": ("repro/workloads/generator.py", "build_traces"),
    "traces.decode_s": ("repro/traces/format.py", "read_chunk"),
    "system.build_s": ("repro/system.py", "__init__"),
    "engine.run_s": ("repro/engine/simulator.py", "run"),
    "coherence.check_s": ("repro/system.py", "check_coherence"),
    "harness.map_runs_s": ("repro/harness/executor.py", "map_runs"),
}


class LayerMap:
    """Maps a profiled function to the ``repro`` layer that defines it."""

    def __init__(self, package_dir: Path) -> None:
        self.prefix = str(package_dir) + "/"

    def layer_of(self, filename: str) -> Optional[str]:
        """The layer of a file inside ``repro``; None for any other code."""
        if not filename.startswith(self.prefix):
            return None
        head = filename[len(self.prefix):].split("/", 1)[0]
        if head == "system.py":
            return "system"
        if head in LAYERS:
            return head
        return "other"


def self_time_by_layer(stats: Dict, layers: LayerMap) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` table.

    Time spent in code outside ``repro`` (builtins, the standard library,
    numpy) belongs to the layer that called it: it is split over the
    callers in proportion to the time each call path spent there, and
    followed up the call graph until it reaches ``repro`` code.
    """
    owners: Dict = {}

    def owner(func, visiting) -> Dict[str, float]:
        if func in owners:
            return owners[func]
        layer = layers.layer_of(func[0])
        if layer is not None:
            share = {layer: 1.0}
        else:
            callers = stats[func][4] if func in stats else {}
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: v[1] for c, v in callers.items()}
                total = sum(weights.values())
            if total <= 0 or func in visiting:
                share = {"other": 1.0}
            else:
                share = defaultdict(float)
                for caller, weight in weights.items():
                    for name, part in owner(caller, visiting | {func}).items():
                        share[name] += part * weight / total
        owners[func] = share
        return share

    seconds = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for name, part in owner(func, frozenset()).items():
            seconds[name] += tt * part
    return seconds


def boundary_times(stats: Dict) -> Dict[str, float]:
    """Cumulative seconds under each entry point of ``BOUNDARIES``."""
    times = dict.fromkeys(BOUNDARIES, 0.0)
    for (filename, _line, name), (_cc, _nc, _tt, ct, _callers) in stats.items():
        for metric, (suffix, function) in BOUNDARIES.items():
            if name == function and filename.endswith(suffix):
                times[metric] += ct
    return times


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def simulated_counts(results: Iterable, events: int, records: int) -> Dict[str, float]:
    """Deterministic simulated counts summed over a repetition's runs."""
    total = defaultdict(int)
    for result in results:
        total["instructions"] += result.instructions
        total["memory_stall_cycles"] += result.memory_stall_cycles
        total["sync_stall_cycles"] += result.sync_stall_cycles
        total["misses"] += result.read_misses + result.write_misses
        for key, value in result.stats_counters.items():
            controller = _MEMORY_CONTROLLER.fullmatch(key)
            if controller:
                key = "mem.total." + controller.group(1)
            total[key] += value
    accesses = total["l1.total.accesses"]
    attempts = total["wnoc.attempts"]
    return {
        "engine.events": events,
        "cpu.instructions": total["instructions"],
        "cpu.memory_stall_cycles": total["memory_stall_cycles"],
        "cpu.sync_stall_cycles": total["sync_stall_cycles"],
        "coherence.l1_accesses": accesses,
        "coherence.l1_misses": total["misses"],
        "coherence.hit_ratio": 1.0 - _ratio(total["misses"], accesses),
        "coherence.invalidations": total["dir.total.invalidations_sent"],
        "coherence.llc_accesses": total["dir.total.llc_accesses"],
        "noc.messages": total["noc.messages"],
        "noc.hops_per_msg": _ratio(total["noc.total_hops"], total["noc.messages"]),
        "noc.queueing_cycles": total["noc.queueing_cycles"],
        "wireless.attempts": attempts,
        "wireless.frames": total["wnoc.frames"],
        "wireless.collisions": total["wnoc.collisions"],
        "wireless.success_ratio": _ratio(total["wnoc.frames"], attempts),
        "wireless.jams": total["wnoc.jams"],
        "wireless.busy_cycles": total["wnoc.busy_cycles"],
        "mem.reads": total["mem.total.reads"],
        "mem.writes": total["mem.total.writes"],
        "traces.records": records,
    }
