"""Unit and property tests for the cohort (calendar) event kernel.

The contract under test is the one :mod:`repro.engine.batch` documents:
callbacks run in the ``(time, seq)`` total order a binary heap keyed on
``(time, seq)`` would produce — same callback order, same clock values,
same ``until``/``max_events`` semantics — including the awkward corners
(spill-heap crossover, callbacks scheduled for the current cycle
mid-drain, a budget that runs out mid-cohort). :class:`_HeapModel` below
is that heap, kept here as the reference. The golden-digest suite proves
the kernel end-to-end on full runs; these tests pin each mechanism in
isolation so a violation fails with a readable diff instead of a digest
mismatch.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.batch import COHORT_WINDOW, CohortQueue
from repro.engine.errors import SimulationError
from repro.engine.simulator import Simulator

W = COHORT_WINDOW


class _HeapModel:
    """Reference kernel: one ``(time, seq, callback)`` heap, one pop per event."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def schedule_at(self, time, callback):
        if time < self.now:
            raise SimulationError("past")
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def schedule(self, delay, callback):
        self.schedule_at(self.now + delay, callback)

    def run(self, until=None, max_events=None):
        if until is not None and until < self.now:
            raise SimulationError("past")
        executed = 0
        heap = self._heap
        while heap:
            time, _, callback = heap[0]
            if until is not None and time > until:
                self.now = until
                break
            self.now = time
            if max_events is not None and executed >= max_events:
                raise SimulationError("max_events")  # the event stays queued
            heapq.heappop(heap)
            callback()
            executed += 1
        return self.now


def _mixed_schedule(sim, fired):
    """A workload exercising same-cycle order, far spills, and re-entry."""
    sim.schedule(3, lambda: fired.append("a@3"))
    sim.schedule(3, lambda: fired.append("b@3"))
    # Beyond the ring window: must spill and come back in order.
    sim.schedule(W + 10, lambda: fired.append("far"))
    sim.schedule(0, lambda: fired.append("now"))

    def reenter():
        fired.append("re@5")
        # Same-cycle append during the cohort drain.
        sim.schedule(0, lambda: fired.append("re-same@5"))
        sim.schedule(2, lambda: fired.append("re-later@7"))

    sim.schedule(5, reenter)


class TestCohortQueue:
    def test_window_must_be_power_of_two(self):
        with pytest.raises(SimulationError):
            CohortQueue(window=3)
        with pytest.raises(SimulationError):
            CohortQueue(window=0)

    def test_empty_queue(self):
        assert len(CohortQueue()) == 0
        sim = Simulator()
        assert sim.run() == 0
        assert sim.events_executed == 0

    def test_pop_order_matches_heap_queue(self):
        # A deterministic pseudo-random schedule, including times beyond
        # the cohort window (spill path), fires in (time, seq) order.
        schedule = []
        state = 12345
        for i in range(300):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            schedule.append((state % (2 * W), i))
        sim = Simulator()
        fired = []
        for time, tag in schedule:
            sim.schedule_at(time, lambda t=tag: fired.append((sim.now, t)))
        sim.run()
        assert fired == sorted(schedule)

    def test_spill_crossover_preserves_seq_order(self):
        # Events for cycle W+1 scheduled BEFORE the window reaches it spill;
        # one scheduled after the window re-centres buckets directly.
        # Spilled events carry smaller seqs, so they must fire first.
        sim = Simulator()
        fired = []
        sim.schedule_at(W + 1, lambda: fired.append("spilled-0"))
        sim.schedule_at(W + 1, lambda: fired.append("spilled-1"))
        assert len(sim.queue._spill) == 2

        def late():
            assert not sim.queue._spill  # the re-centre pulled both in
            sim.schedule_at(W + 1, lambda: fired.append("bucketed"))
            assert not sim.queue._spill

        sim.schedule_at(W // 2, late)
        sim.run()
        assert fired == ["spilled-0", "spilled-1", "bucketed"]

    def test_peek_time_considers_spill_head(self):
        # With the ring empty, the next cycle is the spill head's. A run
        # bounded short of it leaves the clock at ``until``, and the ring
        # still gives every later cycle its own bucket.
        sim = Simulator()
        fired = []
        sim.schedule_at(3 * W, lambda: fired.append(("a", sim.now)))
        assert sim.run(until=100) == 100
        sim.schedule_at(105, lambda: fired.append(("b", sim.now)))
        sim.schedule_at(105 + 2 * W, lambda: fired.append(("c", sim.now)))
        sim.run()
        assert fired == [("b", 105), ("c", 105 + 2 * W), ("a", 3 * W)]


class TestBatchedSimulatorParity:
    """The cohort drain must be observation-identical to the heap model."""

    def _run_both(self, populate, **run_kwargs):
        results = []
        for sim in (_HeapModel(), Simulator()):
            fired = []
            populate(sim, fired)
            end = sim.run(**run_kwargs)
            results.append((fired, end))
        model_result, result = results
        assert result == model_result
        return result

    def test_kernel_flag_selects_queue(self):
        assert Simulator.batched is True
        assert isinstance(Simulator().queue, CohortQueue)

    def test_full_drain_order_and_clock(self):
        fired, end = self._run_both(_mixed_schedule)
        assert fired == [
            "now", "a@3", "b@3", "re@5", "re-same@5", "re-later@7", "far",
        ]
        assert end == W + 10

    def test_until_bound_leaves_clock_at_until(self):
        fired, end = self._run_both(_mixed_schedule, until=6)
        assert fired == ["now", "a@3", "b@3", "re@5", "re-same@5"]
        assert end == 6

    def test_max_events_raises_before_excess_callback(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.events_executed == 3

    def test_cohort_cut_short_counts_only_returned_callbacks(self):
        # A callback that raises mid-cohort is not counted.
        sim = Simulator()
        fired = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1, lambda: fired.append("first"))
        sim.schedule(1, boom)
        sim.schedule(1, lambda: fired.append("never"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert fired == ["first"]
        assert sim.events_executed == 1

        # A budget that runs out mid-cohort, after a same-cycle append,
        # keeps the unexecuted tail queued in order for the next run.
        sim = Simulator()
        fired = []

        def head():
            fired.append("head")
            sim.schedule(0, lambda: fired.append("appended"))

        sim.schedule(1, head)
        sim.schedule(1, lambda: fired.append("second"))
        sim.schedule(1, lambda: fired.append("third"))
        with pytest.raises(SimulationError):
            sim.run(max_events=2)
        assert fired == ["head", "second"]
        assert sim.events_executed == 2
        assert sim.pending_events == 2
        assert sim.run() == 1
        assert fired == ["head", "second", "third", "appended"]
        assert sim.events_executed == 4

    def test_long_horizon_rescheduling_chain(self):
        # A self-rescheduling event that hops half a window each time walks
        # the ring across many advance_base re-centerings.
        hop = W // 2 + 7

        def populate(sim, fired):
            def tick(remaining):
                fired.append(sim.now)
                if remaining:
                    sim.schedule(hop, lambda: tick(remaining - 1))

            sim.schedule(0, lambda: tick(10))

        fired, end = self._run_both(populate)
        assert fired == [i * hop for i in range(11)]
        assert end == 10 * hop


# ------------------------------------------------- random differential

#: Delays and ``until`` offsets from both sides of the ring window: the
#: spill path only runs for events scheduled at or beyond the horizon.
_delays = st.one_of(
    st.integers(0, 16),
    st.integers(W - 16, W + 16),
    st.integers(2 * W, 4 * W),
)

_ops = st.lists(
    st.one_of(
        # (op, delay, delay of a child the callback schedules)
        st.tuples(st.just("schedule"), _delays, st.none() | _delays),
        st.tuples(st.just("until"), _delays),
        st.tuples(st.just("max_events"), st.integers(0, 8)),
    ),
    max_size=40,
)


def _drive(sim, ops):
    """Apply ``ops`` to a kernel; return its (tag, fire cycle) log and clock.

    A ``max_events`` run that raises is logged and the ops go on: the
    callbacks it did not run stay queued, so later runs must still match.
    """
    log = []

    def fire(tag, child):
        def callback():
            log.append((tag, sim.now))
            if child is not None:
                sim.schedule(child, lambda: log.append((-tag, sim.now)))

        return callback

    for tag, op in enumerate(ops, start=1):
        if op[0] == "schedule":
            sim.schedule(op[1], fire(tag, op[2]))
        elif op[0] == "until":
            sim.run(until=sim.now + op[1])
        else:
            try:
                sim.run(max_events=op[1])
            except SimulationError:
                log.append(("raised", sim.now))
    sim.run()
    return log, sim.now


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_random_ops_match_heap_reference(ops):
    assert _drive(Simulator(), ops) == _drive(_HeapModel(), ops)
