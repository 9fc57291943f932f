"""Off-chip memory: functional backing store plus timing controllers.

``MainMemory`` is the authoritative word store the whole machine bottoms out
in; ``MemoryController`` adds the Table III 80-cycle round trip and a simple
bank-occupancy queue so bursts of misses serialize realistically. A line is
a plain ``{word index: value}`` dict; memory copies lines on the way in and
out, so no cache or message shares storage with it.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.engine.simulator import Simulator
from repro.stats.collectors import StatsRegistry


class MainMemory:
    """Flat word-addressable backing store (line -> word index -> value)."""

    def __init__(self) -> None:
        self._lines: Dict[int, Dict[int, int]] = {}

    def read_line(self, line: int) -> Dict[int, int]:
        """Return a copy of the line's words (missing words are 0)."""
        stored = self._lines.get(line)
        return dict(stored) if stored is not None else {}

    def write_line(self, line: int, data) -> None:
        """Write back a full line image."""
        if data:
            self._lines[line] = dict(data)
        else:
            self._lines.pop(line, None)

    def read_word(self, line: int, word: int) -> int:
        stored = self._lines.get(line)
        return stored.get(word, 0) if stored is not None else 0

    def write_word(self, line: int, word: int, value: int) -> None:
        stored = self._lines.get(line)
        if stored is None:
            stored = self._lines[line] = {}
        stored[word] = value


class MemoryController:
    """One off-chip channel: fixed round trip plus FIFO bank occupancy.

    A request issued while the channel is busy waits for every earlier
    request; this first-order queueing is what makes memory-bound workloads
    (high MPKI) hurt more at high core counts, as in the paper.
    """

    def __init__(
        self,
        sim: Simulator,
        memory: MainMemory,
        round_trip_cycles: int,
        stats: StatsRegistry,
        controller_id: int = 0,
    ) -> None:
        self.sim = sim
        self.memory = memory
        self.round_trip_cycles = round_trip_cycles
        self.stats = stats
        self.controller_id = controller_id
        self._busy_until = 0
        self._reads = stats.counter(f"mem{controller_id}.reads")
        self._writes = stats.counter(f"mem{controller_id}.writes")

    def _service_time(self) -> int:
        """Reserve the channel and return the absolute completion cycle."""
        start = max(self.sim.now, self._busy_until)
        done = start + self.round_trip_cycles
        self._busy_until = done
        return done

    def fetch_line(self, line: int, on_done: Callable[[Dict[int, int]], None]) -> None:
        """Read a line; ``on_done`` receives the word data at completion."""
        self._reads.add()
        done = self._service_time()
        self.sim.schedule_at(done, lambda: on_done(self.memory.read_line(line)))

    def writeback_line(
        self, line: int, data, on_done: Callable[[], None] = None
    ) -> None:
        """Write a full line back to memory; data is copied at the call."""
        self._writes.add()
        snapshot = dict(data)
        done = self._service_time()

        def finish() -> None:
            self.memory.write_line(line, snapshot)
            if on_done is not None:
                on_done()

        self.sim.schedule_at(done, finish)
