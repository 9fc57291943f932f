"""The simulation kernel: a clock plus an event queue.

Every hardware structure in the library is modelled as plain Python objects
that react to callbacks scheduled here. Time is an integer cycle count at the
core clock (1 GHz in the paper's Table III, so 1 cycle == 1 ns, which is also
how the wireless channel latencies are expressed).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.engine.batch import CohortQueue
from repro.engine.errors import SimulationError
from repro.engine.events import Event
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
        self._stopped = False
        #: Callbacks invoked after :meth:`run` fully drains the queue (not
        #: on an ``until`` bound or a :meth:`stop`). Hooks must not
        #: schedule new events; they are for end-of-run bookkeeping (e.g.
        #: the observability orphan-span audit + final counter sample).
        #: The list is empty by default and costs one truthiness test per
        #: :meth:`run` return.
        self.drain_hooks: List[Callable[[], None]] = []

    @property
    def events_executed(self) -> int:
        """Total callbacks run so far (a cheap progress / cost metric)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Events still queued (cancelled ones count until reclaimed).

        Periodic observers (e.g. the online invariant checker) use this to
        decide whether to re-arm: a self-rescheduling event would otherwise
        keep :meth:`run`'s drain loop alive forever.
        """
        return len(self.queue)

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Run ``callback`` ``delay`` cycles from now (delay >= 0).

        The event creation and queue insert are inlined (``Event.__init__``
        bypassed, no helper call): scheduling is the most-called operation
        in the kernel and the extra call frames were measurable.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        queue = self.queue
        seq = queue._seq
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        queue._seq = seq + 1
        queue._live += 1
        if time < queue._horizon:
            queue._buckets[time & queue._mask].append(event)
            queue._ring_live += 1
        else:
            heappush(queue._spill, (time, seq, event))
        return event

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Run ``callback`` at absolute cycle ``time`` (time >= now).

        Inlined like :meth:`schedule`, with the same ordering semantics.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, already at cycle {self.now}"
            )
        queue = self.queue
        seq = queue._seq
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.cancelled = False
        queue._seq = seq + 1
        queue._live += 1
        if time < queue._horizon:
            queue._buckets[time & queue._mask].append(event)
            queue._ring_live += 1
        else:
            heappush(queue._spill, (time, seq, event))
        return event

    def stop(self) -> None:
        """Request that :meth:`run` return before the next event."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue; return the final cycle.

        Each iteration advances the clock to the next cycle holding a live
        event and drains that cycle's *entire cohort* as one list walk,
        including events the cohort schedules for its own cycle: they
        append to the bucket being walked and the same pass picks them up.
        This is the hottest loop in the simulator, so it works on the
        queue's buckets directly.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly beyond this cycle. The
            clock is left at ``until`` in that case. Must not be earlier
            than the current cycle.
        max_events:
            Safety valve for tests: raise :class:`SimulationError` *before*
            executing event ``max_events + 1`` in this call, i.e. at most
            ``max_events`` callbacks run (a runaway protocol loop otherwise
            spins forever).
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until cycle {until}, already at cycle {self.now}"
            )
        executed_here = 0
        self._stopped = False
        queue = self.queue
        buckets = queue._buckets
        mask = queue._mask
        spill = queue._spill
        cycle = self.now
        half_window = queue._window >> 1
        adv_at = queue._base + half_window
        while not self._stopped:
            # ---- locate the next cycle holding a queued event.
            if queue._ring_live:
                limit = queue._horizon
                while cycle < limit and not buckets[cycle & mask]:
                    cycle += 1
                if cycle >= limit:  # pragma: no cover - ring_live guards this
                    queue.advance_base(cycle)
                    adv_at = cycle + half_window
                    continue
            else:
                while spill and spill[0][2].cancelled:
                    heappop(spill)
                    queue._live -= 1
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
            bucket = buckets[cycle & mask]
            # Tombstone-only cohorts must not advance the clock: reclaim
            # and move on without touching ``self.now``.
            for event in bucket:
                if not event.cancelled:
                    break
            else:
                dead = len(bucket)
                queue._live -= dead
                queue._ring_live -= dead
                del bucket[:]
                continue
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
            # ---- drain the whole cohort in one pass. The bound is re-read
            # ---- each step so same-cycle appends made by callbacks extend
            # ---- the current pass instead of re-entering any queue.
            consumed = 0
            if max_events is None:
                while consumed < len(bucket) and not self._stopped:
                    event = bucket[consumed]
                    consumed += 1
                    if event.cancelled:
                        continue
                    event.callback()
                    self._events_executed += 1
            else:
                while consumed < len(bucket) and not self._stopped:
                    event = bucket[consumed]
                    consumed += 1
                    if event.cancelled:
                        continue
                    if executed_here >= max_events:
                        queue._live -= consumed
                        queue._ring_live -= consumed
                        del bucket[:consumed]
                        raise SimulationError(
                            f"exceeded max_events={max_events}; "
                            "likely a livelocked protocol transaction"
                        )
                    event.callback()
                    self._events_executed += 1
                    executed_here += 1
            queue._live -= consumed
            queue._ring_live -= consumed
            if consumed == len(bucket):
                del bucket[:]
            else:  # stopped mid-cohort: keep the unconsumed tail
                del bucket[:consumed]
        if self.drain_hooks and not len(queue):
            for hook in self.drain_hooks:
                hook()
        return self.now
