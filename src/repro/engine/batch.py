"""The cohort (calendar) event queue behind :class:`~repro.engine.simulator.Simulator`.

Profiles of full runs show the overwhelming majority of events are
scheduled a short, bounded distance into the future (L1 hit latencies,
mesh hops, memory round trips, tone windows), which is the textbook
calendar-queue regime: keep a ring of per-cycle *cohort* buckets and drain
each cycle's cohort as one list walk, instead of paying an O(log n) heap
push and pop per event.

An event is just its callback: a bucket is a plain list of callables, and
nothing wraps them. Callbacks fire in the ``(time, seq)`` total order,
where ``seq`` is the schedule order:

* Within one bucket, callbacks append in schedule order, so a list walk
  *is* that order for the cycle.
* Callbacks scheduled beyond the ring window land in a spill heap of
  ``(time, seq, callback)`` tuples, where ``seq`` is a counter only spills
  take, so it breaks ties in spill order. For any cycle T there is a
  single crossover: while T is outside the window every schedule for T
  spills, and once the window reaches T every schedule for T buckets —
  the ring base only grows. All spilled callbacks for T therefore precede
  all bucketed ones for T in schedule order, so pulling the spill
  (heap-ordered) into the bucket *before* later appends preserves the
  total order.
* A callback scheduled for the *current* cycle during that cycle's drain
  appends to the bucket being walked and is picked up by the same walk.

The ring base never passes the simulator's clock, so every schedulable
cycle in ``[base, base + window)`` owns a distinct bucket.
:meth:`Simulator.run <repro.engine.simulator.Simulator.run>` walks the
buckets directly; this class holds the storage and the window advance.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Tuple

from repro.engine.errors import SimulationError

#: Ring width in cycles. Must be a power of two and comfortably larger than
#: the longest common delay (memory round trips ~80, wireless backoff up to
#: a few hundred); rarer longer delays spill to the heap and are pulled
#: back as the window advances.
COHORT_WINDOW = 4096


class CohortQueue:
    """Cycle-bucketed callback storage: a ring of cohorts plus a spill heap."""

    __slots__ = (
        "_buckets",
        "_mask",
        "_window",
        "_spill",
        "_seq",
        "_ring_live",
        "_base",
        "_horizon",
    )

    def __init__(self, window: int = COHORT_WINDOW) -> None:
        if window <= 0 or window & (window - 1):
            raise SimulationError(f"cohort window must be a power of two, got {window}")
        self._window = window
        self._mask = window - 1
        self._buckets: List[List[Callable[[], None]]] = [[] for _ in range(window)]
        #: Callbacks whose cycle lies at or beyond ``_horizon``.
        self._spill: List[Tuple[int, int, Callable[[], None]]] = []
        #: Spill tie-break: the next spilled callback's sequence number.
        self._seq = 0
        #: Callbacks currently resident in the ring (excludes spill).
        self._ring_live = 0
        #: Smallest cycle the ring can currently represent. Advanced by the
        #: simulator's drain loop, never past its clock (never rewound).
        self._base = 0
        #: ``_base + _window``, maintained as one field so the schedule hot
        #: path tests a single attribute.
        self._horizon = window

    def __len__(self) -> int:
        return self._ring_live + len(self._spill)

    def advance_base(self, base: int) -> None:
        """Move the ring window to ``[base, base + window)``.

        Pulls every spilled callback now inside the window into its bucket.
        Heap pops come out in ``(time, seq)`` order and, per the crossover
        argument in the module docstring, precede any future appends for
        the same cycle — total order is preserved.
        """
        self._base = base
        horizon = base + self._window
        self._horizon = horizon
        spill = self._spill
        if not spill:
            return
        buckets = self._buckets
        mask = self._mask
        pulled = 0
        while spill and spill[0][0] < horizon:
            time, _, callback = heapq.heappop(spill)
            buckets[time & mask].append(callback)
            pulled += 1
        self._ring_live += pulled
