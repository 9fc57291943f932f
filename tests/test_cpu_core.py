"""Tests for the trace-driven core model against mock caches, and of its
counter reads on a real machine."""

from typing import Callable, Dict, List

import pytest

from repro.coherence.states import MODIFIED, READABLE_STATES, WRITABLE_STATES
from repro.config import paper_config, widir_config
from repro.cpu.core import Core
from repro.cpu.sync import PhaseBarrier
from repro.cpu import trace as t
from repro.engine.simulator import Simulator
from repro.harness.runner import build_machine
from repro.mem.cache_array import CacheArray
from repro.stats.collectors import StatsRegistry
from repro.workloads import build_traces, resolve_profile


def l1_array(resident=()) -> CacheArray:
    """A real L1 tag array (the core does its hits against it) holding
    ``resident`` lines in M, which is readable and writable."""
    array = CacheArray(num_sets=64, associativity=8)
    for line in resident:
        array.insert(line, MODIFIED)
    return array


class MockCache:
    """Deterministic cache stub with a programmable per-line latency.

    Its tag array holds no line, so every load and store takes the miss leg.
    """

    readable_states = READABLE_STATES
    writable_states = WRITABLE_STATES

    def __init__(self, sim: Simulator, latency: int = 2) -> None:
        self.sim = sim
        self.latency = latency
        self.latency_of: Dict[int, int] = {}
        self.values: Dict[int, int] = {}
        self.calls: List[str] = []
        self.array = l1_array()

    def _delay(self, address: int) -> int:
        return self.latency_of.get(address >> 6, self.latency)

    def load_miss(self, address: int, on_done: Callable[[int], None]) -> None:
        self.load(address, on_done)

    def store_miss(self, address: int, value: int, on_done: Callable[[], None]) -> None:
        self.store(address, value, on_done)

    def load(self, address: int, on_done: Callable[[int], None]) -> None:
        self.calls.append("load")
        value = self.values.get(address, 0)
        self.sim.schedule(self._delay(address), lambda: on_done(value))

    def store(self, address: int, value: int, on_done: Callable[[], None]) -> None:
        self.calls.append("store")
        self.values[address] = value
        self.sim.schedule(self._delay(address), on_done)

    def rmw(self, address: int, on_done: Callable[[int], None]) -> None:
        self.calls.append("rmw")
        old = self.values.get(address, 0)
        self.values[address] = old + 1
        self.sim.schedule(self._delay(address), lambda: on_done(old))


class ProbeCache:
    """Cache stub with the hit surface the real controller publishes.

    Lines in ``resident`` sit in its tag array in M, so the core hits them
    without a call; every other load or store misses and completes
    ``MISS_LATENCY`` cycles later, as does every RMW.
    """

    MISS_LATENCY = 20
    readable_states = READABLE_STATES
    writable_states = WRITABLE_STATES

    def __init__(self, sim: Simulator, resident=()) -> None:
        self.sim = sim
        self.array = l1_array(resident)
        self.calls: List[str] = []

    def load_miss(self, address: int, on_done: Callable[[int], None]) -> None:
        self.calls.append("load_miss")
        self.sim.schedule(self.MISS_LATENCY, lambda: on_done(0))

    def store_miss(self, address: int, value: int, on_done: Callable[[], None]) -> None:
        self.calls.append("store_miss")
        self.sim.schedule(self.MISS_LATENCY, on_done)

    def rmw(self, address: int, on_done: Callable[[int], None]) -> None:
        self.calls.append("rmw")
        self.sim.schedule(self.MISS_LATENCY, lambda: on_done(0))


def run_core(trace, latency=2, config=None, barrier=None, node=0, sim=None):
    sim = sim or Simulator()
    cache = MockCache(sim, latency)
    config = config or paper_config(num_cores=4)
    core = Core(sim, node, cache, config, StatsRegistry(), barrier)
    core.run_trace(trace)
    sim.run()
    assert core.finished
    return core, cache, sim


class TestExecution:
    def test_think_advances_clock_at_issue_width(self):
        core, _, sim = run_core([t.think(40)])
        # 40 instructions at 4-wide = 10 cycles.
        assert core.result.finish_cycle == 10
        assert core.result.instructions == 40

    def test_loads_and_stores_counted_as_instructions(self):
        core, cache, _ = run_core([t.load(0x100), t.store(0x108, 5)])
        assert core.result.instructions == 2
        assert cache.calls == ["load", "store"]

    def test_empty_trace_finishes_immediately(self):
        core, _, sim = run_core([])
        assert core.finished
        assert core.result.finish_cycle == 0

    def test_rmw_values_flow_through_mock(self):
        core, cache, _ = run_core([t.rmw(0x40), t.rmw(0x40)])
        assert cache.values[0x40] == 2


class TestStallAccounting:
    def test_l1_hits_do_not_stall(self):
        """Blocking loads at hit latency are hidden by the grace window."""
        core, _, _ = run_core([t.load(0x100), t.load(0x108)], latency=2)
        assert core.result.memory_stall_cycles == 0

    def test_long_latency_blocking_load_stalls(self):
        core, _, _ = run_core([t.load(0x100)], latency=50)
        # 50 cycles minus the 2-cycle hit grace.
        assert core.result.memory_stall_cycles == 48

    def test_nonblocking_loads_overlap(self):
        trace = [t.load(0x100, blocking=False), t.think(400)]
        core, _, _ = run_core(trace, latency=50)
        assert core.result.memory_stall_cycles == 0
        assert core.result.finish_cycle == 100  # dominated by think time

    def test_load_latency_recorded_even_when_overlapped(self):
        trace = [t.load(0x100, blocking=False), t.think(400)]
        core, _, _ = run_core(trace, latency=50)
        assert core.result.load_latency.count == 1
        assert core.result.load_latency.total == 50

    def test_mlp_limit_throttles_outstanding_loads(self):
        config = paper_config(num_cores=4)
        many_loads = [t.load(0x1000 + 64 * i, blocking=False) for i in range(16)]
        core, _, _ = run_core(many_loads, latency=30, config=config)
        # 16 loads, 8 at a time, 30 cycles each: at least two waves.
        assert core.result.finish_cycle >= 60
        assert core.result.memory_stall_cycles > 0

    def test_store_buffer_hides_store_latency(self):
        trace = [t.store(0x100, 1), t.think(400)]
        core, _, _ = run_core(trace, latency=50)
        assert core.result.memory_stall_cycles == 0

    def test_rmw_blocks_until_complete(self):
        core, _, _ = run_core([t.rmw(0x100)], latency=50)
        assert core.result.memory_stall_cycles == 50

    def test_rmw_drains_older_stores_first(self):
        """The atomic must wait for the write buffer to drain."""
        trace = [t.store(0x100, 1), t.rmw(0x200)]
        core, cache, _ = run_core(trace, latency=10)
        assert cache.calls == ["store", "rmw"]
        assert core.result.memory_stall_cycles >= 10  # drained the store


#: Line 4 (addresses 0x100-0x13f) is resident in every ProbeCache below.
HIT = 0x100


def run_probe_core(trace):
    sim = Simulator()
    cache = ProbeCache(sim, resident={HIT >> 6})
    core = Core(sim, 0, cache, paper_config(num_cores=4), StatsRegistry())
    core.run_trace(trace)
    sim.run()
    assert core.finished
    return core, cache, sim


class TestHitPath:
    """The core's own hit branches, driven over a cache's tag array."""

    def test_config_under_test(self):
        config = paper_config(num_cores=4)
        assert config.core.max_outstanding_misses == 8
        assert config.core.write_buffer_entries == 64
        assert config.l1.round_trip_cycles == 2

    def test_nonblocking_load_hits_wait_for_a_free_mlp_slot(self):
        """Eight hits fill the MLP slots; the ninth issues when the first
        completes at cycle 2, and the core retires when it lands at 4."""
        core, cache, sim = run_probe_core([t.load(HIT, blocking=False)] * 9)
        result = core.result
        assert result.finish_cycle == 4
        assert result.memory_stall_cycles == 4
        assert result.load_latency.count == 9
        assert result.load_latency.total == 18
        assert result.instructions == 9
        assert sim.events_executed == 10
        assert cache.calls == []

    def test_store_hits_wait_for_a_free_write_buffer_slot(self):
        trace = [t.store(HIT + 8 * (i % 8), i) for i in range(65)]
        core, cache, _ = run_probe_core(trace)
        result = core.result
        assert result.finish_cycle == 4
        assert result.memory_stall_cycles == 4
        assert result.store_latency.count == 65
        assert result.load_latency.count == 0
        assert cache.calls == []

    def test_blocking_load_hits_resume_without_stall(self):
        core, _, _ = run_probe_core([t.load(HIT), t.load(HIT + 8), t.think(8)])
        result = core.result
        assert result.finish_cycle == 6
        assert result.memory_stall_cycles == 0
        assert result.load_latency.count == 2
        assert result.instructions == 10

    def test_hits_and_misses_interleave(self):
        """Non-blocking hit, blocking miss (20 cycles, 2 of grace), store
        hit, then an RMW that waits for the store to drain."""
        trace = [
            t.load(HIT, blocking=False),
            t.load(0x2000),
            t.store(HIT + 8, 7),
            t.rmw(0x300),
            t.think(3),
        ]
        core, cache, _ = run_probe_core(trace)
        result = core.result
        assert result.finish_cycle == 43
        assert result.memory_stall_cycles == 40
        assert result.instructions == 7
        assert (result.load_latency.count, result.load_latency.total) == (2, 22)
        assert (result.store_latency.count, result.store_latency.total) == (2, 22)
        assert cache.calls == ["load_miss", "rmw"]

    def test_kind_equal_to_a_constant_but_not_interned_runs(self):
        kind = "".join(["lo", "ad"])
        assert kind == t.OP_LOAD and kind is not t.OP_LOAD
        core, cache, _ = run_probe_core([t.TraceOp(kind, address=HIT)])
        assert core.result.finish_cycle == 2
        assert core.result.load_latency.count == 1
        assert cache.calls == []


def prefix_totals(trace, pc):
    """(instructions, loads, stores, rmws) of ``trace``'s first ``pc`` ops:
    what counting every op at issue gives once the core is past them."""
    kinds = trace.kinds[:pc]
    think = sum(arg for kind, arg in zip(kinds, trace.args) if kind == t.CODE_THINK)
    loads = kinds.count(t.CODE_LOAD)
    stores = kinds.count(t.CODE_STORE)
    rmws = kinds.count(t.CODE_RMW)
    return think + loads + stores + rmws, loads, stores, rmws


#: The ways to read a registry counter; each must fold the cores' tallies.
COUNTER_READERS = {
    "get_counter": lambda stats, name: stats.get_counter(name),
    "counters": lambda stats, name: stats.counters()[name],
    "counter": lambda stats, name: stats.counter(name).value,
}


class TestCounterReads:
    """Cores tally references and instructions and fold them in on read;
    every read must return what per-op counting would, at every cycle."""

    CORES = 16
    #: ``run(until=)`` stops (None runs to the end), each with the reader
    #: that goes first there: its own fold must bring the counters up to
    #: date. "result" reads ``Core.result`` before the registry.
    STOPS = (
        (500, "get_counter"),
        (1_500, "counters"),
        (2_500, "counter"),
        (4_000, "result"),
        (None, "get_counter"),
    )

    def test_reads_match_the_trace_prefix_at_every_stop(self):
        machine, cores, _ = build_machine(widir_config(num_cores=self.CORES, seed=42))
        traces = build_traces(resolve_profile("radiosity"), self.CORES, 600, 0)
        for core, trace in zip(cores, traces):
            core.run_trace(trace)
        stats = machine.stats
        for stop, first in self.STOPS:
            machine.run(until=stop)
            if stop is not None:
                assert machine.sim.now == stop
            totals = [prefix_totals(trace, core._pc) for core, trace in zip(cores, traces)]
            instructions = [total[0] for total in totals]
            if first == "result":
                assert [core.result.instructions for core in cores] == instructions
            for name in sorted(COUNTER_READERS, key=lambda name: name != first):
                read = COUNTER_READERS[name]
                for node, (_, loads, stores, _) in enumerate(totals):
                    assert read(stats, f"core.{node}.instructions") == instructions[node]
                    assert read(stats, f"l1.{node}.loads") == loads
                    assert read(stats, f"l1.{node}.stores") == stores
                assert read(stats, "core.total.instructions") == sum(instructions)
                assert read(stats, "l1.total.accesses") == sum(
                    loads + stores + rmws for _, loads, stores, rmws in totals
                )
            assert [core.result.instructions for core in cores] == instructions
        assert all(core.finished for core in cores)
        assert machine.sim.now > 4_000


class TestBarriers:
    def test_cores_align_at_barrier(self):
        sim = Simulator()
        config = paper_config(num_cores=2)
        barrier = PhaseBarrier(2)
        caches = [MockCache(sim, 2), MockCache(sim, 2)]
        cores = [
            Core(sim, n, caches[n], config, StatsRegistry(), barrier)
            for n in range(2)
        ]
        cores[0].run_trace([t.think(400), t.barrier(0)])
        cores[1].run_trace([t.barrier(0)])
        sim.run()
        # Core 1 waited ~100 cycles for core 0.
        assert cores[1].result.sync_stall_cycles >= 99
        assert cores[0].result.sync_stall_cycles == 0

    def test_barrier_ignored_without_coordinator(self):
        core, _, _ = run_core([t.barrier(0), t.think(4)], barrier=None)
        assert core.result.finish_cycle == 1

    def test_sync_stall_separate_from_memory_stall(self):
        sim = Simulator()
        config = paper_config(num_cores=2)
        barrier = PhaseBarrier(2)
        caches = [MockCache(sim, 50), MockCache(sim, 2)]
        cores = [
            Core(sim, n, caches[n], config, StatsRegistry(), barrier)
            for n in range(2)
        ]
        cores[0].run_trace([t.load(0x100), t.barrier(0)])
        cores[1].run_trace([t.barrier(0)])
        sim.run()
        assert cores[0].result.memory_stall_cycles == 48
        assert cores[1].result.sync_stall_cycles > 0


class TestTraceHelpers:
    def test_count_instructions(self):
        trace = [t.think(10), t.load(0), t.store(0, 1), t.rmw(0), t.barrier(0)]
        assert t.count_instructions(trace) == 13

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            t.TraceOp("jump")
