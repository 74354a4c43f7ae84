"""Unit tests for generator processes and events."""

import pytest

from repro.simkernel import (
    Interrupt,
    ProcessKilled,
    Simulator,
    Timeout,
)
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


def test_process_return_value_via_join(sim):
    def child():
        yield Timeout(1)
        return 42

    results = []

    def parent():
        value = yield sim.spawn(child())
        results.append(value)

    sim.spawn(parent())
    sim.run()
    assert results == [42]


def test_process_result_property(sim):
    def child():
        yield Timeout(1)
        return "ok"

    proc = sim.spawn(child())
    with pytest.raises(RuntimeError):
        _ = proc.result
    sim.run()
    assert proc.result == "ok"
    assert not proc.alive


def test_event_wait_receives_value(sim):
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.schedule(3.0, ev.succeed, "payload")
    sim.run()
    assert got == [(3.0, "payload")]


def test_already_triggered_event_resumes_immediately(sim):
    ev = sim.event()
    ev.succeed("x")
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, "x")]


def test_event_double_trigger_raises(sim):
    ev = sim.event()
    ev.succeed()
    with pytest.raises(EventError):
        ev.succeed()


def test_event_fail_raises_in_waiter(sim):
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as e:
            caught.append(str(e))

    sim.spawn(waiter())
    sim.schedule(1.0, ev.fail, RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_fail_requires_exception(sim):
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_uncaught_exception_propagates_to_joiner(sim):
    def bad():
        yield Timeout(1)
        raise ValueError("broken")

    caught = []

    def parent():
        try:
            yield sim.spawn(bad())
        except ValueError as e:
            caught.append(str(e))

    sim.spawn(parent())
    sim.run()
    assert caught == ["broken"]


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


def test_kill_terminates_and_fails_waiters(sim):
    caught = []

    def sleeper():
        yield Timeout(100)

    def parent(proc):
        try:
            yield proc
        except ProcessKilled:
            caught.append(sim.now)

    victim = sim.spawn(sleeper())
    sim.spawn(parent(victim))
    sim.schedule(2.0, victim.kill)
    sim.run()
    assert caught == [2.0]
    assert not victim.alive


def test_interrupted_event_wait_detaches_from_event(sim):
    ev = sim.event()
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
        yield "not a waitable"

    proc = sim.spawn(bad())
    sim.run()
    with pytest.raises(TypeError):
        _ = proc.result


def test_nested_process_tree(sim):
    order = []

    def leaf(name, d):
        yield Timeout(d)
        order.append(name)
        return name

    def mid():
        a = yield sim.spawn(leaf("a", 1))
        b = yield sim.spawn(leaf("b", 1))
        return a + b

    def root():
        value = yield sim.spawn(mid())
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
