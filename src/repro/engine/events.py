"""The scheduled-event record.

An :class:`Event` is what :meth:`~repro.engine.simulator.Simulator.schedule`
hands back: the callback, the cycle it fires at, and a sequence number. The
monotonically increasing sequence number makes the kernel's ordering
*total* and therefore deterministic: two events scheduled for the same
cycle always fire in the order they were scheduled.
"""

from __future__ import annotations

from typing import Callable


class Event:
    """A scheduled callback; supports O(1) cancellation via a tombstone flag."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event dead; the kernel skips it instead of running it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state})"
