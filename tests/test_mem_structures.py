"""Tests for MSHRs and memory controllers."""

import pytest

from repro.engine.simulator import Simulator
from repro.mem.memory_controller import MainMemory, MemoryController
from repro.mem.mshr import MshrFile
from repro.stats.collectors import StatsRegistry


class TestMshrFile:
    def test_allocate_and_release(self):
        mshrs = MshrFile(2)
        entry = mshrs.allocate(0x40, is_write=False, now=0)
        assert 0x40 in mshrs
        assert mshrs.get(0x40) is entry
        assert mshrs.release(0x40) is entry
        assert 0x40 not in mshrs

    def test_capacity_tracking(self):
        mshrs = MshrFile(2)
        mshrs.allocate(1, False, 0)
        assert not mshrs.full
        mshrs.allocate(2, False, 0)
        assert mshrs.full
        mshrs.release(1)
        assert not mshrs.full

    def test_waiters_run_in_order(self):
        mshrs = MshrFile(4)
        entry = mshrs.allocate(1, False, 0)
        order = []
        entry.add_waiter(lambda: order.append("a"))
        entry.add_waiter(lambda: order.append("b"))
        entry.complete()
        assert order == ["a", "b"]

    def test_complete_clears_waiters(self):
        mshrs = MshrFile(4)
        entry = mshrs.allocate(1, False, 0)
        count = []
        entry.add_waiter(lambda: count.append(1))
        entry.complete()
        entry.complete()
        assert count == [1]

    def test_outstanding_lines(self):
        mshrs = MshrFile(4)
        mshrs.allocate(5, False, 0)
        mshrs.allocate(9, True, 0)
        assert sorted(mshrs.outstanding_lines()) == [5, 9]


class TestMainMemory:
    def test_unwritten_words_read_zero(self):
        memory = MainMemory()
        assert memory.read_word(0x40, 3) == 0
        assert memory.read_line(0x40) == {}

    def test_word_write_read_roundtrip(self):
        memory = MainMemory()
        memory.write_word(0x40, 3, 77)
        assert memory.read_word(0x40, 3) == 77
        assert memory.read_line(0x40) == {3: 77}

    def test_read_line_returns_copy(self):
        memory = MainMemory()
        memory.write_word(0x40, 0, 1)
        snapshot = memory.read_line(0x40)
        snapshot[0] = 999
        assert memory.read_word(0x40, 0) == 1

    def test_write_line_replaces_contents(self):
        memory = MainMemory()
        memory.write_word(0x40, 0, 1)
        memory.write_line(0x40, {5: 50})
        assert memory.read_line(0x40) == {5: 50}


class TestMemoryController:
    def make(self, round_trip=80):
        sim = Simulator()
        memory = MainMemory()
        controller = MemoryController(sim, memory, round_trip, StatsRegistry())
        return sim, memory, controller

    def test_fetch_latency(self):
        sim, memory, controller = self.make()
        memory.write_word(0x40, 0, 11)
        done = []
        controller.fetch_line(0x40, lambda data: done.append((sim.now, data)))
        sim.run()
        assert done == [(80, {0: 11})]

    def test_writeback_then_fetch_sees_new_data(self):
        sim, memory, controller = self.make()
        controller.writeback_line(0x40, {2: 5})
        done = []
        controller.fetch_line(0x40, lambda data: done.append(data))
        sim.run()
        assert done == [{2: 5}]

    def test_requests_serialize_on_the_channel(self):
        sim, _, controller = self.make(round_trip=10)
        times = []
        controller.fetch_line(1, lambda d: times.append(sim.now))
        controller.fetch_line(2, lambda d: times.append(sim.now))
        controller.fetch_line(3, lambda d: times.append(sim.now))
        sim.run()
        assert times == [10, 20, 30]

    def test_writeback_snapshot_taken_at_call(self):
        sim, memory, controller = self.make(round_trip=10)
        data = {0: 1}
        controller.writeback_line(0x40, data)
        data[0] = 999  # mutation after the call must not leak in
        sim.run()
        assert memory.read_word(0x40, 0) == 1

    def test_stats_counters(self):
        sim, _, controller = self.make()
        stats = controller.stats
        controller.fetch_line(1, lambda d: None)
        controller.writeback_line(2, {0: 1})
        sim.run()
        assert stats.get_counter("mem0.reads") == 1
        assert stats.get_counter("mem0.writes") == 1
