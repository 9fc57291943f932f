"""Unit tests for the discrete-event kernel."""

import pytest

from repro.engine.errors import SimulationError
from repro.engine.simulator import Simulator


class TestEventOrder:
    def test_empty_run_keeps_clock_at_zero(self):
        sim = Simulator()
        assert sim.run() == 0
        assert sim.pending_events == 0

    def test_run_on_drained_queue_is_a_no_op(self):
        sim = Simulator()
        sim.schedule(4, lambda: None)
        assert sim.run() == 4
        assert sim.run() == 4
        assert sim.events_executed == 1

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append(30))
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(20, lambda: fired.append(20))
        sim.run()
        assert fired == [10, 20, 30]

    def test_same_cycle_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(5, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_earliest_event_sets_clock_first(self):
        sim = Simulator()
        seen = []
        sim.schedule(7, lambda: None)
        sim.schedule(3, lambda: seen.append(sim.now))
        sim.run(until=3)
        assert seen == [3]
        assert sim.now == 3


class TestSimulator:
    def test_run_advances_clock_to_last_event(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(25, lambda: None)
        assert sim.run() == 25
        assert sim.now == 25

    def test_schedule_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(3, lambda: None)

    def test_run_until_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=3)
        assert sim.now == 5

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(1, lambda: chain(n + 1))

        sim.schedule(0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(50, lambda: fired.append(50))
        sim.run(until=20)
        assert fired == [10]
        assert sim.now == 20
        sim.run()
        assert fired == [10, 50]

    def test_max_events_guards_against_livelock(self):
        sim = Simulator()

        def forever():
            sim.schedule(1, forever)

        sim.schedule(0, forever)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_max_events_budget_is_exact(self):
        """Regression (off-by-one): exactly ``max_events`` callbacks may
        run; the budget is checked *before* executing the next event."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]  # the 4th callback never executed
        assert sim.events_executed == 3

    def test_max_events_equal_to_workload_passes(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i + 1, lambda: None)
        sim.run(max_events=5)  # budget exactly met: no error
        assert sim.events_executed == 5

    def test_same_cycle_batch_preserves_order_and_until(self):
        """The same-cycle drain fast path must not reorder events or
        overrun an ``until`` bound."""
        sim = Simulator()
        fired = []
        for i in range(4):
            sim.schedule(10, lambda i=i: fired.append(("a", i)))
        sim.schedule(20, lambda: fired.append(("b", 0)))
        sim.run(until=15)
        assert fired == [("a", 0), ("a", 1), ("a", 2), ("a", 3)]
        assert sim.now == 15
        sim.run()
        assert fired[-1] == ("b", 0)

    def test_events_executed_counter(self):
        sim = Simulator()
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_executed == 7
