"""The trace-driven core model.

The model reproduces the *occupancy* behaviour of the paper's out-of-order
core (Table III) without simulating a pipeline:

* non-memory instructions retire at ``issue_width`` per cycle;
* loads issue asynchronously up to ``max_outstanding_misses`` in flight
  (memory-level parallelism); a *blocking* load additionally stalls the core
  until its own data returns, modelling a use-dependent consumer nearby;
* stores retire into the write buffer and drain concurrently; the core only
  stalls when the buffer is full;
* atomics (RMW) drain the write buffer and outstanding loads first, then
  block — the consistency-model behaviour the paper's wireless RMW respects;
* barriers align all cores via a :class:`~repro.cpu.sync.PhaseBarrier`.

Every cycle the core spends blocked on any of the above is attributed to
``memory_stall_cycles`` (barrier waits go to ``sync_stall_cycles``), which is
exactly the decomposition behind the paper's Figure 8 bars. Per-operation
latencies (issue to completion) feed Figure 7.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.coherence.states import MODIFIED, WIRELESS
from repro.config.system import SystemConfig
from repro.cpu.sync import PhaseBarrier
from repro.cpu.trace import (
    CODE_BARRIER,
    CODE_LOAD,
    CODE_RMW,
    CODE_STORE,
    CODE_THINK,
    TraceChunk,
)
from repro.engine.simulator import Simulator
from repro.mem.address import AddressMap
from repro.stats.collectors import Histogram, LatencyStat, StatsRegistry


class CoreResult:
    """Summary of one core's execution of its trace."""

    __slots__ = (
        "node",
        "finish_cycle",
        "instructions",
        "memory_stall_cycles",
        "sync_stall_cycles",
        "load_latency",
        "store_latency",
        "latency_hist",
    )

    def __init__(self, node: int) -> None:
        self.node = node
        self.finish_cycle = 0
        self.instructions = 0
        self.memory_stall_cycles = 0
        self.sync_stall_cycles = 0
        self.load_latency = LatencyStat(f"core{node}.load_latency")
        self.store_latency = LatencyStat(f"core{node}.store_latency")
        #: Combined load+store+RMW latency distribution (p50/p95/p99 come
        #: from here; the LatencyStats above only keep min/mean/max).
        self.latency_hist = Histogram(f"core{node}.memory_latency")

    @property
    def total_memory_latency(self) -> int:
        return self.load_latency.total + self.store_latency.total


class Core:
    """Executes one trace against one tile's cache controller.

    ``cache`` is the tile's L1. Besides the miss entry points
    (``load_miss``, ``store_miss``, ``rmw``) it publishes its tag array
    (``array``, a :class:`~repro.mem.cache_array.CacheArray`) and its
    protocol backend's permission sets (``readable_states``,
    ``writable_states``): :meth:`_step` does every L1 hit itself.
    """

    def __init__(
        self,
        sim: Simulator,
        node: int,
        cache,
        config: SystemConfig,
        stats: StatsRegistry,
        barrier: Optional[PhaseBarrier] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.cache = cache
        self.config = config
        self.barrier = barrier
        self._result = CoreResult(node)
        #: Tallies since the last :meth:`_fold`. Each load and store counts
        #: once, as a hit or a miss; ``_instructions`` holds think
        #: instructions and RMWs. :meth:`_fold` adds them to the result and
        #: to the registry counters whenever either is read.
        self._load_hits = 0
        self._load_misses = 0
        self._store_hits = 0
        self._store_misses = 0
        self._instructions = 0
        self._issue_width = config.core.issue_width
        self._max_loads = config.core.max_outstanding_misses
        self._wb_capacity = config.core.write_buffer_entries
        # Column bindings (re-bound by ``run_trace``): _step walks these.
        self._bind_chunk(TraceChunk())
        self._chunk_source: Optional[Callable[[], Optional[TraceChunk]]] = None
        self._outstanding_loads = 0
        self._wb_occupancy = 0
        self._stall_started: Optional[int] = None
        self._stall_bucket: Optional[str] = None
        self._stall_grace = 0
        self._wakeup: Optional[Callable[[], bool]] = None
        self._finished = False
        # The counters the tallies fold into: the core's instruction
        # counters and the L1's reference counters.
        self._instr = stats.counter(f"core.{node}.instructions")
        self._instr_total = stats.counter("core.total.instructions")
        self._l1_loads = stats.counter(f"l1.{node}.loads")
        self._l1_stores = stats.counter(f"l1.{node}.stores")
        self._l1_accesses = stats.counter("l1.total.accesses")
        self._stats = stats
        # More hot-path bindings: one attribute hop instead of two or three
        # in the per-operation issue/complete closures.
        self._load_record = self._result.load_latency.record
        self._store_record = self._result.store_latency.record
        self._hist_record = self._result.latency_hist.record
        #: L1 hit round trip — the constant latency of the hit branches
        #: in :meth:`_step`.
        self._hit_latency = config.l1.round_trip_cycles
        # The L1 the hit branches work on, and the address split of
        # AddressMap.line_of / word_of.
        self._l1_sets = cache.array.sets
        self._l1_set_mask = cache.array.set_mask
        self._readable = cache.readable_states
        self._writable = cache.writable_states
        line_bytes = config.l1.line_bytes
        self._line_shift = line_bytes.bit_length() - 1
        self._offset_mask = line_bytes - 1
        self._word_shift = AddressMap.WORD_BYTES.bit_length() - 1
        # The event queue's append interface (see repro.engine.batch):
        # hit and think wake-ups go straight into its ring.
        self._queue = sim.queue
        self._buckets = sim.queue.buckets
        self._ring_mask = sim.queue.mask
        # The callbacks every hit and think schedules, bound once instead
        # of creating a bound method per wake-up.
        self._step_cb = self._step
        self._nb_hit_done_cb = self._nb_hit_done
        self._st_hit_done_cb = self._st_hit_done
        # Miss entry points, bound once.
        self._load_miss = cache.load_miss
        self._store_miss = cache.store_miss

    # --------------------------------------------------------------- control

    def run_trace(self, trace, chunk_source=None) -> None:
        """Begin executing ``trace``; :attr:`finished` turns True at completion.

        ``trace`` is a :class:`~repro.cpu.trace.TraceChunk` (the native
        format) or a legacy list of :class:`TraceOp`, converted once here.
        The chunk's columns are bound to attributes so :meth:`_step` walks
        flat typed buffers with no per-op object in sight.

        ``chunk_source``, if given, is a zero-argument callable polled when
        the bound chunk drains: it returns the next :class:`TraceChunk` or
        ``None`` for end-of-stream. The refill happens synchronously inside
        :meth:`_step` — no event is scheduled, no simulated time passes —
        so a streamed trace produces the *identical* event sequence to the
        same ops presented as one monolithic chunk. This is what lets the
        trace-replay frontend drive a billion-reference file in O(chunk)
        memory.
        """
        if not isinstance(trace, TraceChunk):
            trace = TraceChunk.from_ops(trace)
        # From the first trace on, every counter read folds this core's
        # tallies. Not before: a machine's cores are built one after
        # another, and each counter lookup would fold every earlier core.
        self._stats.add_flush(self._fold)
        self._chunk_source = chunk_source
        self._bind_chunk(trace)
        self._finished = False
        self.sim.schedule(0, self._step_cb)

    def _bind_chunk(self, trace: TraceChunk) -> None:
        self._kinds = trace.kinds
        self._addresses = trace.addresses
        self._values = trace.values
        self._args = trace.args
        self._blocking = trace.blocking
        self._trace_len = len(trace.kinds)
        self._pc = 0

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> CoreResult:
        """This core's accumulators, with every tally so far folded in."""
        self._fold()
        return self._result

    def _fold(self) -> None:
        """Add the tallies to the result and the registry counters.

        :attr:`result` and :meth:`StatsRegistry.flush
        <repro.stats.collectors.StatsRegistry.flush>` call this before
        every read, so a reader sees exactly the values that counting and
        recording each reference at issue would give: a hit's latency is
        the constant L1 round trip, and latency records are order-free
        sums.
        """
        load_hits = self._load_hits
        store_hits = self._store_hits
        loads = load_hits + self._load_misses
        stores = store_hits + self._store_misses
        instructions = self._instructions + loads + stores
        if not instructions:
            return
        self._load_hits = self._load_misses = 0
        self._store_hits = self._store_misses = 0
        self._instructions = 0
        result = self._result
        result.instructions += instructions
        self._instr.value += instructions
        self._instr_total.value += instructions
        self._l1_loads.value += loads
        self._l1_stores.value += stores
        self._l1_accesses.value += loads + stores
        latency = self._hit_latency
        result.load_latency.record_many(latency, load_hits)
        result.store_latency.record_many(latency, store_hits)
        result.latency_hist.record_many(latency, load_hits + store_hits)

    # ------------------------------------------------------------ execution

    def _step(self) -> None:
        """Advance through trace ops until blocked or done.

        This runs once per wake-up across every core, and almost every
        reference is an L1 hit, so an L1 hit makes no Python call. The
        load and store branches look the line up in the L1's tag array
        and, on a hit, do what the L1 would: the LRU touch, the W update
        count reset of a load, the M/dirty/word write of a store. A hit
        or think op only bumps a tally (see :meth:`_fold`) and appends its
        wake-up to the event queue's ring under the append rule of
        :mod:`repro.engine.batch`, which gives it the ``(time, seq)`` slot
        a ``Simulator.schedule`` call would. Only a miss leaves the loop
        (:meth:`_issue_load_miss`, :meth:`_issue_store_miss`).

        The trace *columns* (struct-of-arrays, see
        :class:`~repro.cpu.trace.TraceChunk`), their length and the
        program counter are locals. ``pc`` is written back to ``self._pc``
        before every return and before every call that reads or advances
        it, and re-read after. Kinds are the small-int ``CODE_*`` codes.
        """
        kinds = self._kinds
        addresses = self._addresses
        trace_len = self._trace_len
        pc = self._pc
        while True:
            while pc < trace_len:
                kind = kinds[pc]
                # Each branch either leaves the op to a helper (and
                # continues or returns), or sets the wake-up to append:
                # ``delay``, ``wake``, and ``parked`` when the core waits
                # for it.
                if kind == CODE_THINK:
                    arg = self._args[pc]
                    pc += 1
                    self._instructions += arg
                    delay = -(-arg // self._issue_width)
                    if delay <= 0:
                        delay = 1
                    wake = self._step_cb
                    parked = True
                elif kind == CODE_LOAD:
                    if self._outstanding_loads >= self._max_loads:
                        self._pc = pc
                        self._block(
                            "memory", lambda: self._outstanding_loads < self._max_loads
                        )
                        return
                    address = addresses[pc]
                    blocking = self._blocking[pc]
                    pc += 1
                    line = address >> self._line_shift
                    cache_set = self._l1_sets[line & self._l1_set_mask]
                    entry = cache_set.get(line)
                    if entry is not None:
                        # LRU touch, as CacheArray.lookup makes it.
                        del cache_set[line]
                        cache_set[line] = entry
                    if entry is None or entry.state not in self._readable:
                        self._pc = pc
                        if not self._issue_load_miss(address, blocking):
                            return
                        pc = self._pc
                        continue
                    if entry.state == WIRELESS:
                        entry.update_count = 0
                    self._load_hits += 1
                    delay = self._hit_latency
                    if blocking:
                        # The general path blocks with ``grace == hit
                        # latency`` and so charges no stall for a hit;
                        # skipping the block/wake bookkeeping is equivalent.
                        wake = self._step_cb
                        parked = True
                    else:
                        self._outstanding_loads += 1
                        wake = self._nb_hit_done_cb
                        parked = False
                elif kind == CODE_STORE:
                    if self._wb_occupancy >= self._wb_capacity:
                        self._pc = pc
                        self._block(
                            "memory", lambda: self._wb_occupancy < self._wb_capacity
                        )
                        return
                    address = addresses[pc]
                    value = self._values[pc]
                    pc += 1
                    self._wb_occupancy += 1
                    line = address >> self._line_shift
                    cache_set = self._l1_sets[line & self._l1_set_mask]
                    entry = cache_set.get(line)
                    if entry is not None:
                        del cache_set[line]
                        cache_set[line] = entry
                    if entry is None or entry.state not in self._writable:
                        self._pc = pc
                        self._issue_store_miss(address, value)
                        pc = self._pc
                        continue
                    # M/E write hit: performed now, as the L1 would.
                    entry.state = MODIFIED
                    entry.dirty = True
                    entry.data[(address & self._offset_mask) >> self._word_shift] = value
                    self._store_hits += 1
                    delay = self._hit_latency
                    wake = self._st_hit_done_cb
                    parked = False
                elif kind == CODE_RMW:
                    self._pc = pc
                    if not self._issue_rmw(addresses[pc]):
                        return
                    pc = self._pc
                    continue
                elif kind == CODE_BARRIER:
                    self._pc = pc
                    if not self._issue_barrier(self._args[pc]):
                        return
                    pc = self._pc
                    continue
                else:
                    raise ValueError(f"unknown trace op kind code {kind}")
                # Append the wake-up (the rule of repro.engine.batch).
                time = self.sim.now + delay
                queue = self._queue
                if time < queue.horizon:
                    self._buckets[time & self._ring_mask].append(wake)
                    queue.ring_live += 1
                else:
                    self.sim.schedule_at(time, wake)
                if parked:
                    self._pc = pc
                    return
            self._pc = pc
            # Chunk drained: synchronously pull the next one if streaming.
            # Rebinding inside the wake-up keeps the event stream identical
            # to a monolithic trace — no time passes, nothing is scheduled.
            if self._chunk_source is None:
                break
            chunk = self._chunk_source()
            if chunk is None:
                self._chunk_source = None
                break
            self._bind_chunk(chunk)
            kinds = self._kinds
            addresses = self._addresses
            trace_len = self._trace_len
            pc = self._pc
        # Trace drained: the core retires once all memory traffic lands.
        if self._outstanding_loads or self._wb_occupancy:
            self._block("memory", self._no_outstanding)
            return
        self._finish()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.result.finish_cycle = self.sim.now  # folds the tallies

    # --------------------------------------------------------------- stalls

    def _block(
        self, bucket: str, can_continue: Callable[[], bool], grace: int = 0
    ) -> None:
        """Park the core until ``can_continue()``; charge the wait to bucket.

        ``grace`` cycles of the wait are considered hidden by the pipeline
        (an L1 hit under a use-dependent load does not stall a real OoO
        core) and are not charged as stall.
        """
        self._stall_started = self.sim.now
        self._stall_bucket = bucket
        self._stall_grace = grace
        self._wakeup = can_continue

    def _maybe_wake(self) -> None:
        if self._wakeup is None or not self._wakeup():
            return
        started = self._stall_started if self._stall_started is not None else self.sim.now
        waited = self.sim.now - started
        waited = max(0, waited - self._stall_grace)
        if self._stall_bucket == "sync":
            self._result.sync_stall_cycles += waited
        else:
            self._result.memory_stall_cycles += waited
        self._wakeup = None
        self._stall_started = None
        self._stall_bucket = None
        self._stall_grace = 0
        self._step()

    def _no_outstanding(self) -> bool:
        return self._outstanding_loads == 0 and self._wb_occupancy == 0

    # ------------------------------------------------------------- load path

    def _issue_load_miss(self, address: int, blocking: bool) -> bool:
        """Send a load the hit check missed (already past ``pc``).

        Returns False when the core must wait for it: a blocking load whose
        data has not arrived.
        """
        self._load_misses += 1
        self._outstanding_loads += 1
        issued = self.sim.now
        completed = [False]  # one-slot cell: cheaper than a dict in this hot path

        def on_done(_value: int) -> None:
            completed[0] = True
            self._outstanding_loads -= 1
            latency = self.sim.now - issued
            self._load_record(latency)
            self._hist_record(latency)
            self._maybe_wake()

        self._load_miss(address, on_done)
        if blocking and not completed[0]:
            grace = self.config.l1.round_trip_cycles
            self._block("memory", lambda: completed[0], grace=grace)
            return False
        return True

    def _nb_hit_done(self) -> None:
        """Completion of a non-blocking L1 hit load (the hit was tallied
        at issue): release the MLP slot and re-check any stall condition."""
        self._outstanding_loads -= 1
        if self._wakeup is not None:
            self._maybe_wake()

    # ------------------------------------------------------------ store path

    def _issue_store_miss(self, address: int, value: int) -> None:
        """Send a store the hit check did not perform (already past ``pc``
        and holding its write-buffer slot)."""
        self._store_misses += 1
        issued = self.sim.now

        def on_done() -> None:
            self._wb_occupancy -= 1
            latency = self.sim.now - issued
            self._store_record(latency)
            self._hist_record(latency)
            self._maybe_wake()

        self._store_miss(address, value, on_done)

    def _st_hit_done(self) -> None:
        """Completion of an M/E store hit (the hit was tallied at issue):
        drain the write-buffer slot and re-check any stall condition."""
        self._wb_occupancy -= 1
        if self._wakeup is not None:
            self._maybe_wake()

    # -------------------------------------------------------------- RMW path

    def _issue_rmw(self, address: int) -> bool:
        # Atomic: per the consistency model the RMW executes only once older
        # memory operations have drained, and younger ones wait for it.
        if not self._no_outstanding():
            self._block("memory", self._no_outstanding)
            return False
        self._pc += 1
        self._instructions += 1
        issued = self.sim.now
        completed = [False]

        def on_done(_old: int) -> None:
            completed[0] = True
            latency = self.sim.now - issued
            self._store_record(latency)
            self._hist_record(latency)
            self._maybe_wake()

        self.cache.rmw(address, on_done)
        if not completed[0]:
            self._block("memory", lambda: completed[0])
            return False
        return True

    # ---------------------------------------------------------- barrier path

    def _issue_barrier(self, phase: int) -> bool:
        if self.barrier is None:
            self._pc += 1
            return True
        if not self._no_outstanding():
            self._block("memory", self._no_outstanding)
            return False
        self._pc += 1
        released = [False]

        def on_release() -> None:
            released[0] = True
            self._maybe_wake()

        self.barrier.arrive(phase, on_release)
        if not released[0]:
            self._block("sync", lambda: released[0])
            return False
        return True
