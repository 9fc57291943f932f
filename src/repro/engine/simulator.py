"""The simulation kernel: a clock plus an event queue.

Every hardware structure in the library is modelled as plain Python objects
that react to callbacks scheduled here. Time is an integer cycle count at the
core clock (1 GHz in the paper's Table III, so 1 cycle == 1 ns, which is also
how the wireless channel latencies are expressed).
"""

from __future__ import annotations

from heapq import heappush
from itertools import islice
from typing import Callable, List, Optional

from repro.engine.batch import CohortQueue
from repro.engine.errors import SimulationError
from repro.engine.rng import DeterministicRng


class Simulator:
    """Owns the clock, the event queue, and the root RNG.

    Callbacks run in ``(time, seq)`` order: by cycle, and by schedule
    order within a cycle. The queue is the cohort (calendar) queue of
    :mod:`repro.engine.batch`.

    Parameters
    ----------
    seed:
        Root seed from which all component RNG streams are split.
    """

    #: Always True: the cohort queue is the only kernel. Kept so result
    #: provenance that reports the kernel still reads it.
    batched = True

    def __init__(self, seed: int = 0) -> None:
        self.queue = CohortQueue()
        self.now = 0
        self.rng = DeterministicRng(seed)
        self._events_executed = 0
        #: Callbacks invoked after :meth:`run` fully drains the queue (not
        #: on an ``until`` bound). Hooks must not schedule new events; they
        #: are for end-of-run bookkeeping (e.g. the observability
        #: orphan-span audit + final counter sample).
        #: The list is empty by default and costs one truthiness test per
        #: :meth:`run` return.
        self.drain_hooks: List[Callable[[], None]] = []

    @property
    def events_executed(self) -> int:
        """Total callbacks run so far (a cheap progress / cost metric)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Callbacks still queued.

        Periodic observers (e.g. the online invariant checker) use this to
        decide whether to re-arm: a self-rescheduling event would otherwise
        keep :meth:`run`'s drain loop alive forever.
        """
        return len(self.queue)

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (delay >= 0).

        The queue insert is inlined (no helper call): scheduling is the
        most-called operation in the kernel and the extra call frame was
        measurable.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        queue = self.queue
        if time < queue._horizon:
            queue._buckets[time & queue._mask].append(callback)
            queue._ring_live += 1
        else:
            seq = queue._seq
            queue._seq = seq + 1
            heappush(queue._spill, (time, seq, callback))

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute cycle ``time`` (time >= now).

        Inlined like :meth:`schedule`, with the same ordering semantics.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, already at cycle {self.now}"
            )
        queue = self.queue
        if time < queue._horizon:
            queue._buckets[time & queue._mask].append(callback)
            queue._ring_live += 1
        else:
            seq = queue._seq
            queue._seq = seq + 1
            heappush(queue._spill, (time, seq, callback))

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue; return the final cycle.

        Each iteration advances the clock to the next cycle holding a
        callback and drains that cycle's *entire cohort* as one ``for``
        loop over its bucket, including callbacks the cohort schedules for
        its own cycle: they append to the bucket being walked and the same
        loop picks them up. The executed count and the ring count are
        updated once per cohort. This is the hottest loop in the
        simulator, so it works on the queue's buckets directly.

        Parameters
        ----------
        until:
            Stop once the next callback lies strictly beyond this cycle.
            The clock is left at ``until`` in that case. Must not be
            earlier than the current cycle.
        max_events:
            Safety valve for tests: raise :class:`SimulationError` *before*
            executing callback ``max_events + 1`` in this call, i.e. at most
            ``max_events`` callbacks run (a runaway protocol loop otherwise
            spins forever). The callbacks not run stay queued, in order.
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until cycle {until}, already at cycle {self.now}"
            )
        remaining = max_events
        queue = self.queue
        buckets = queue._buckets
        mask = queue._mask
        spill = queue._spill
        cycle = self.now
        half_window = queue._window >> 1
        adv_at = queue._base + half_window
        while True:
            # ---- locate the next cycle holding a queued callback.
            if queue._ring_live:
                limit = queue._horizon
                while cycle < limit and not buckets[cycle & mask]:
                    cycle += 1
                if cycle >= limit:  # pragma: no cover - ring_live guards this
                    queue.advance_base(cycle)
                    adv_at = cycle + half_window
                    continue
            else:
                if not spill:
                    break  # fully drained; the clock stays at the last event
                cycle = spill[0][0]
                # Check the bound before moving the ring: the base must
                # never pass the clock, or later schedules would alias.
                if until is not None and cycle > until:
                    self.now = until
                    break
                queue.advance_base(cycle)
                adv_at = cycle + half_window
                continue  # spill pulled into the ring; rescan from its cycle
            if until is not None and cycle > until:
                self.now = until
                break
            if cycle >= adv_at:
                # Re-centre the window every half-window of progress: the
                # horizon stays >= window/2 ahead of the clock (so schedules
                # essentially never spill) and due spill events are pulled
                # into their buckets while the clock is still short of them
                # (spill times always lie at/beyond the pre-advance horizon).
                queue.advance_base(cycle)
                adv_at = cycle + half_window
            self.now = cycle
            # ---- drain the whole cohort in one loop. A list iterator
            # ---- re-reads the length each step, so same-cycle appends
            # ---- made by callbacks extend the current loop.
            bucket = buckets[cycle & mask]
            ran = 0
            try:
                if remaining is None:
                    for callback in bucket:
                        callback()
                        ran += 1
                else:
                    for callback in islice(bucket, remaining):
                        callback()
                        ran += 1
            finally:
                # A raising callback leaves the count at those that returned.
                self._events_executed += ran
            queue._ring_live -= ran
            if len(bucket) > ran:  # the budget ran out mid-cohort
                del bucket[:ran]
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a livelocked protocol transaction"
                )
            bucket.clear()
            if remaining is not None:
                remaining -= ran
        if self.drain_hooks and not len(queue):
            for hook in self.drain_hooks:
                hook()
        return self.now
