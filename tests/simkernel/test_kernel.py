"""Unit tests for the simulator clock and event queue."""

import pytest

from repro.simkernel import Simulator
from repro.simkernel.kernel import SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_runs_callback_at_delay():
    sim = Simulator()
    hits = []
    sim.schedule(5.0, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [5.0]
    assert sim.now == 5.0


def test_schedule_at_absolute_time():
    sim = Simulator()
    hits = []
    sim.schedule_at(7.5, hits.append, "x")
    sim.run()
    assert hits == ["x"]
    assert sim.now == 7.5


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_events_fire_in_time_order_regardless_of_schedule_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_run_until_stops_clock_exactly_at_until():
    sim = Simulator()
    hits = []
    sim.schedule(10.0, hits.append, "late")
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert hits == []
    sim.run(until=20.0)
    assert hits == ["late"]
    assert sim.now == 20.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_run_until_boundary_event_fires():
    sim = Simulator()
    hits = []
    sim.schedule(4.0, hits.append, "edge")
    sim.run(until=4.0)
    assert hits == ["edge"]


def test_cancel_revokes_callback():
    sim = Simulator()
    hits = []
    entry = sim.schedule(1.0, hits.append, "never")
    sim.cancel(entry)
    sim.run()
    assert hits == []


def test_step_returns_false_on_empty_queue():
    assert Simulator().step() is False


def test_peek_reports_next_live_event_time():
    sim = Simulator()
    assert sim.peek() is None
    e1 = sim.schedule(2.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    assert sim.peek() == 2.0
    sim.cancel(e1)
    assert sim.peek() == 5.0


def test_callbacks_can_schedule_more_work():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append((sim.now, n))
        if n > 0:
            sim.schedule(1.0, chain, n - 1)

    sim.schedule(0.0, chain, 3)
    sim.run()
    assert hits == [(0.0, 3), (1.0, 2), (2.0, 1), (3.0, 0)]


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 4
