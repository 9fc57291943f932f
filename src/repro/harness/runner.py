"""Run one application on one machine and collect everything.

Every simulation, live or replayed, goes through :func:`execute`:
:func:`build_machine` assembles a :class:`~repro.system.Manycore` with one
core per node, :func:`drive` attaches each core's trace source and runs to
completion under one event budget, the coherence invariants are validated,
and :func:`harvest` folds the statistics into a :class:`SimulationResult`.
A live run and a replay differ only in their per-core sources: ``run_app``
synthesizes the application's traces, :mod:`repro.traces.replay` streams
them from a trace file. ``run_pair``, the same traces on the Baseline and
the WiDir machine so normalized comparisons share a reference stream, is
the executor's pair (:mod:`repro.harness.executor`, which alone decides
whether and how to fork).

Once the result, or the text of a failure, is formed, :func:`execute`
releases the machine (:meth:`~repro.system.Manycore.release`): its
reference cycles are cut, so it is freed as the call returns instead of
waiting, with every earlier machine, for the cyclic collector. A caller
that needs the machine afterwards passes a ``machine_sink``, which
receives it and its cores unreleased; ``machine.release(cores)`` frees
them once the caller is done.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.coherence.dir_controller import SHARER_BINS
from repro.config.system import SystemConfig
from repro.cpu.core import Core
from repro.cpu.sync import PhaseBarrier
from repro.cpu.trace import TraceChunk
from repro.energy.models import EnergyBreakdown, EnergyModel
from repro.engine.errors import SimulationError
from repro.noc.mesh import HOP_BINS
from repro.obs.recorder import open_items
from repro.stats.collectors import Histogram
from repro.system import Manycore
from repro.workloads.generator import build_traces
from repro.workloads.profiles import resolve_profile

#: Default memory references per core per run; override with the
#: REPRO_MEMOPS environment variable to trade accuracy for speed.
DEFAULT_MEMOPS = int(os.environ.get("REPRO_MEMOPS", "1500"))

#: Event-count backstop per trace record, so a harness bug fails fast
#: instead of spinning. The floor gives an (almost) empty trace, such as
#: a zero-memop run or a short replay segment, a workable budget.
MAX_EVENTS_PER_RECORD = 600
_MIN_EVENT_BUDGET = 10_000

#: One core's trace as :meth:`Core.run_trace` takes it: the first chunk
#: and a callable pulling the next one (``None`` once the stream ends),
#: or ``None`` in place of the callable when the first chunk is all.
Source = Tuple[TraceChunk, Optional[Callable[[], Optional[TraceChunk]]]]


class SimulationResult:
    """Everything the evaluation needs from one run."""

    def __init__(
        self,
        app: str,
        config: SystemConfig,
        cycles: int,
        instructions: int,
        memory_stall_cycles: int,
        sync_stall_cycles: int,
        load_latency_total: int,
        store_latency_total: int,
        read_misses: int,
        write_misses: int,
        wireless_writes: int,
        sharer_histogram: Dict[str, int],
        hop_histogram: Dict[str, int],
        collision_probability: float,
        energy: EnergyBreakdown,
        stats_counters: Dict[str, int],
        latency_histogram: Optional[Dict] = None,
    ) -> None:
        self.app = app
        self.config = config
        self.cycles = cycles
        self.instructions = instructions
        self.memory_stall_cycles = memory_stall_cycles
        self.sync_stall_cycles = sync_stall_cycles
        self.load_latency_total = load_latency_total
        self.store_latency_total = store_latency_total
        self.read_misses = read_misses
        self.write_misses = write_misses
        self.wireless_writes = wireless_writes
        self.sharer_histogram = sharer_histogram
        self.hop_histogram = hop_histogram
        self.collision_probability = collision_probability
        self.energy = energy
        self.stats_counters = stats_counters
        #: ``Histogram.to_dict()`` of the merged per-core memory-latency
        #: distribution ({} on results loaded from pre-histogram caches).
        self.latency_histogram = latency_histogram or {}

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        """Full-fidelity JSON-serializable snapshot of this result.

        Round-tripping through :meth:`from_dict` reproduces a result whose
        ``to_dict()`` output is byte-identical (ints and strings are exact;
        floats survive JSON via ``repr`` round-tripping) — the contract the
        experiment executor's on-disk memoization relies on. It is also the
        one JSON form results leave the process in: the executor cache,
        campaign journals and the CLI's ``--json``.
        """
        return {
            "app": self.app,
            "config": self.config.to_dict(),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "memory_stall_cycles": self.memory_stall_cycles,
            "sync_stall_cycles": self.sync_stall_cycles,
            "load_latency_total": self.load_latency_total,
            "store_latency_total": self.store_latency_total,
            "read_misses": self.read_misses,
            "write_misses": self.write_misses,
            "wireless_writes": self.wireless_writes,
            "sharer_histogram": dict(self.sharer_histogram),
            "hop_histogram": dict(self.hop_histogram),
            "collision_probability": self.collision_probability,
            "energy": self.energy.as_dict(),
            "stats_counters": dict(self.stats_counters),
            "latency_histogram": dict(self.latency_histogram),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "SimulationResult":
        """Reconstruct a result saved by :meth:`to_dict`."""
        return cls(
            app=payload["app"],
            config=SystemConfig.from_dict(payload["config"]),
            cycles=payload["cycles"],
            instructions=payload["instructions"],
            memory_stall_cycles=payload["memory_stall_cycles"],
            sync_stall_cycles=payload["sync_stall_cycles"],
            load_latency_total=payload["load_latency_total"],
            store_latency_total=payload["store_latency_total"],
            read_misses=payload["read_misses"],
            write_misses=payload["write_misses"],
            wireless_writes=payload["wireless_writes"],
            sharer_histogram=dict(payload["sharer_histogram"]),
            hop_histogram=dict(payload["hop_histogram"]),
            collision_probability=payload["collision_probability"],
            energy=EnergyBreakdown(**payload["energy"]),
            stats_counters=dict(payload["stats_counters"]),
            # Tolerate caches written before the histogram existed.
            latency_histogram=dict(payload.get("latency_histogram", {})),
        )

    # ------------------------------------------------------ derived metrics

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def mpki(self) -> float:
        """L1 misses per kilo-instruction (Figure 6 / Table IV)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.misses / self.instructions

    @property
    def read_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.read_misses / self.instructions

    @property
    def write_mpki(self) -> float:
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.write_misses / self.instructions

    @property
    def total_memory_latency(self) -> int:
        """Summed per-operation latency (Figure 7)."""
        return self.load_latency_total + self.store_latency_total

    @property
    def total_stall_cycles(self) -> int:
        """Memory stall incl. synchronization waits (Figure 8 breakdown)."""
        return self.memory_stall_cycles + self.sync_stall_cycles

    @property
    def rest_cycles(self) -> int:
        total = self.cycles * self.config.num_cores
        return max(0, total - self.total_stall_cycles)

    @property
    def memory_stall_fraction(self) -> float:
        total = self.cycles * self.config.num_cores
        return self.total_stall_cycles / total if total else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 (plus mean/min/max) of per-op memory latency.

        Empty for results deserialized from caches that predate the
        histogram field.
        """
        if not self.latency_histogram:
            return {}
        from repro.stats.report import percentile_summary

        return percentile_summary(Histogram.from_dict(self.latency_histogram))


def build_machine(config: SystemConfig) -> Tuple[Manycore, List[Core], PhaseBarrier]:
    """A fresh machine with one idle core per node, sharing one barrier."""
    machine = Manycore(config)
    barrier = PhaseBarrier(config.num_cores)
    cores = [
        Core(machine.sim, node, machine.caches[node], config, machine.stats, barrier)
        for node in range(config.num_cores)
    ]
    return machine, cores, barrier


@contextmanager
def fresh_machine(
    config: SystemConfig, machine_sink: Optional[List] = None
) -> Iterator[Tuple[Manycore, List[Core], PhaseBarrier]]:
    """:func:`build_machine` for one ``with`` block, which releases the
    machine (:meth:`Manycore.release`) however the block exits, unless
    ``machine_sink`` takes it: the sink receives the machine and then its
    cores at once, and the caller keeps them usable."""
    machine, cores, barrier = build_machine(config)
    if machine_sink is not None:
        machine_sink.extend((machine, cores))
    try:
        yield machine, cores, barrier
    finally:
        if machine_sink is None:
            machine.release(cores)


def drive(
    machine: Manycore,
    cores: Sequence[Core],
    sources: Iterable[Source],
    records: int,
    label: str,
) -> None:
    """Run every core through its source until the event queue drains.

    ``records`` is the number of trace records the sources hold; the run
    may execute ``MAX_EVENTS_PER_RECORD`` events per record. Raises
    :class:`SimulationError` naming the cores that did not finish and the
    first items the machine still holds open
    (:func:`repro.obs.recorder.open_items`).
    """
    for core, (first, pull) in zip(cores, sources):
        core.run_trace(first, chunk_source=pull)
    budget = max(_MIN_EVENT_BUDGET, MAX_EVENTS_PER_RECORD * records)
    machine.run(max_events=budget)
    stuck = [core.node for core in cores if not core.finished]
    if stuck:
        header = (
            f"{label}: cores {stuck} did not finish (deadlock or lost wakeup "
            f"at cycle {machine.sim.now}); open items:"
        )
        report = open_items(machine, cores, cores[0].barrier)
        raise SimulationError("\n".join([header, *report]))


def harvest(machine: Manycore, cores: Sequence[Core], app: str) -> SimulationResult:
    """Fold a finished machine into a :class:`SimulationResult`."""
    config = machine.config
    cycles = max(core.result.finish_cycle for core in cores)
    stats = machine.stats
    sharer_hist = stats.histogram("widir.sharers_per_update", SHARER_BINS)
    hop_hist = stats.histogram("noc.hops_per_leg", HOP_BINS)
    collision_prob = (
        machine.wireless.collision_probability if machine.wireless else 0.0
    )
    merged_hist = Histogram("memory_latency")
    for core in cores:
        merged_hist.merge(core.result.latency_hist)

    return SimulationResult(
        app=app,
        config=config,
        cycles=cycles,
        instructions=stats.get_counter("core.total.instructions"),
        memory_stall_cycles=sum(c.result.memory_stall_cycles for c in cores),
        sync_stall_cycles=sum(c.result.sync_stall_cycles for c in cores),
        load_latency_total=sum(c.result.load_latency.total for c in cores),
        store_latency_total=sum(c.result.store_latency.total for c in cores),
        read_misses=stats.get_counter("l1.total.read_misses"),
        write_misses=stats.get_counter("l1.total.write_misses"),
        wireless_writes=stats.get_counter("l1.total.wireless_writes"),
        sharer_histogram=dict(zip(sharer_hist.labels(), sharer_hist.counts)),
        hop_histogram=dict(zip(hop_hist.labels(), hop_hist.counts)),
        collision_probability=collision_prob,
        energy=EnergyModel().compute(config, stats, cycles),
        stats_counters=stats.counters(),
        latency_histogram=merged_hist.to_dict(),
    )


def execute(
    config: SystemConfig,
    app: str,
    sources: Iterable[Source],
    records: int,
    check: bool = True,
    machine_sink: Optional[List] = None,
) -> SimulationResult:
    """Run per-core ``sources`` on a fresh machine and harvest the result.

    The machine is released once the result or the failure's text is
    formed. ``machine_sink``, if given, receives the :class:`Manycore`
    instance and its cores instead, unreleased, so callers that need
    post-run access to live machine state (the trace CLI exporting an
    observability capture) can retrieve it without changing the return
    type.
    """
    with fresh_machine(config, machine_sink) as (machine, cores, _):
        drive(machine, cores, sources, records, app)
        if check:
            machine.check_coherence()
        return harvest(machine, cores, app)


def run_app(
    app,
    config: SystemConfig,
    memops_per_core: Optional[int] = None,
    trace_seed: int = 0,
    check: bool = True,
    machine_sink: Optional[List] = None,
) -> SimulationResult:
    """Synthesize ``app``'s traces and run them to completion on one machine.

    ``machine_sink`` is passed through to :func:`execute`.
    """
    profile = resolve_profile(app)
    memops = memops_per_core if memops_per_core is not None else DEFAULT_MEMOPS
    traces = build_traces(profile, config.num_cores, memops, trace_seed)
    return execute(
        config,
        profile.name,
        [(trace, None) for trace in traces],
        sum(len(trace) for trace in traces),
        check,
        machine_sink,
    )


def run_pair(
    app,
    num_cores: int = 64,
    memops_per_core: Optional[int] = None,
    trace_seed: int = 0,
    max_wired_sharers: int = 3,
    seed: int = 42,
) -> Tuple[SimulationResult, SimulationResult]:
    """Run the same traces on Baseline and WiDir; returns (baseline, widir).

    This is the executor's pair, the one ``api.compare`` runs, with two
    workers and no result cache (``REPRO_WORKERS`` is not read): WiDir
    in one forked child while this process runs Baseline when the
    executor may fork, both here one after the other otherwise. ``app``
    is what :meth:`ExperimentPlan.add_pair` takes, a registered
    application's name (or its registered profile); an unknown name, or
    a profile that differs from the registered one of its name, raises
    ``KeyError`` before any fork.
    """
    from repro.harness.executor import Executor  # it imports this module

    profile = resolve_profile(app)
    if resolve_profile(profile.name) != profile:
        raise KeyError(f"{profile.name!r} differs from the registered profile")
    return Executor(workers=2, use_cache=False).run_pair(
        profile.name,
        num_cores=num_cores,
        memops_per_core=memops_per_core,
        trace_seed=trace_seed,
        max_wired_sharers=max_wired_sharers,
        seed=seed,
    )
