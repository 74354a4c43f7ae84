"""Unit tests for generator processes and events."""

import pytest

from repro.simkernel import Event, Interrupt, Simulator, Timeout
from repro.simkernel.events import EventError


@pytest.fixture()
def sim():
    return Simulator()


def test_timeout_suspends_for_duration(sim):
    log = []

    def proc():
        yield Timeout(2.5)
        log.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert log == [2.5]


def test_negative_timeout_rejected(sim):
    with pytest.raises(ValueError):
        Timeout(-1)


def test_process_result_property(sim):
    def child():
        yield Timeout(1)
        return "ok"

    proc = sim.spawn(child())
    assert proc.result is None
    sim.run()
    assert proc.result == "ok"
    assert not proc.alive


def test_event_wait_receives_value(sim):
    ev = Event(sim)
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.schedule(3.0, ev.succeed, "payload")
    sim.run()
    assert got == [(3.0, "payload")]


def test_already_triggered_event_resumes_immediately(sim):
    ev = Event(sim)
    ev.succeed("x")
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, "x")]


def test_event_double_trigger_raises(sim):
    ev = Event(sim)
    ev.succeed()
    with pytest.raises(EventError):
        ev.succeed()


def test_event_callback_added_after_trigger_fires(sim):
    ev = Event(sim)
    ev.succeed("late")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_uncaught_exception_stops_the_run(sim):
    log = []

    def bad():
        yield Timeout(1)
        raise ValueError("broken")

    def bystander():
        yield Timeout(5)
        log.append("ran")

    proc = sim.spawn(bad())
    sim.spawn(bystander())
    with pytest.raises(ValueError, match="broken"):
        sim.run()
    assert sim.now == 1.0
    assert not proc.alive
    assert log == []


def test_interrupt_raises_inside_process(sim):
    log = []

    def sleeper():
        try:
            yield Timeout(100)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    proc = sim.spawn(sleeper())
    sim.schedule(5.0, proc.interrupt, "wake up")
    sim.run()
    assert log == [(5.0, "wake up")]


def test_interrupt_cancels_pending_timeout(sim):
    log = []

    def sleeper():
        try:
            yield Timeout(100)
            log.append("timeout fired")
        except Interrupt:
            log.append("interrupted")

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt)
    sim.run()
    assert log == ["interrupted"]
    assert sim.now < 100


def test_interrupt_dead_process_is_noop(sim):
    def quick():
        yield Timeout(1)

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt()  # must not raise
    sim.run()


def test_kill_idempotent(sim):
    def sleeper():
        yield Timeout(100)

    proc = sim.spawn(sleeper())
    sim.run(until=1.0)
    proc.kill()
    proc.kill()  # no error
    sim.run()
    assert not proc.alive
    assert proc.result is None


def test_killed_process_pending_timeout_cancelled(sim):
    def sleeper():
        yield Timeout(100)

    proc = sim.spawn(sleeper())
    sim.run(until=1.0)
    proc.kill()
    # the pending wakeup at t=100 was disarmed: queue drains immediately
    sim.run()
    assert sim.now < 100


def test_interrupted_event_wait_detaches_from_event(sim):
    ev = Event(sim)
    log = []

    def waiter():
        try:
            yield ev
            log.append("event")
        except Interrupt:
            log.append("interrupted")
            yield Timeout(10)
            log.append("resumed")

    proc = sim.spawn(waiter())
    sim.schedule(1.0, proc.interrupt)
    sim.schedule(2.0, ev.succeed)  # must NOT wake the process a second time
    sim.run()
    assert log == ["interrupted", "resumed"]


def test_yielding_garbage_errors_the_process(sim):
    def bad():
        yield Timeout(1)
        yield "not a waitable"

    proc = sim.spawn(bad())
    with pytest.raises(TypeError, match="non-waitable"):
        sim.run()
    assert sim.now == 1.0
    assert not proc.alive


def test_nested_process_tree(sim):
    order = []

    def leaf(name, d, done):
        yield Timeout(d)
        order.append(name)
        done.succeed(name)

    def mid(done):
        first, second = Event(sim), Event(sim)
        sim.spawn(leaf("a", 1, first))
        a = yield first
        sim.spawn(leaf("b", 1, second))
        b = yield second
        done.succeed(a + b)

    def root():
        done = Event(sim)
        sim.spawn(mid(done))
        value = yield done
        order.append(value)

    sim.spawn(root())
    sim.run()
    assert order == ["a", "b", "ab"]
    assert sim.now == 2.0


def test_many_processes_deterministic_order(sim):
    order = []

    def proc(i):
        yield Timeout(1.0)
        order.append(i)

    for i in range(50):
        sim.spawn(proc(i))
    sim.run()
    assert order == list(range(50))
