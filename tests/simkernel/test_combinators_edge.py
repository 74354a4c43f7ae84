"""Edge cases for event combinators and process teardown."""

import pytest

from repro.simkernel import (
    AllOf,
    AnyOf,
    ProcessKilled,
    Simulator,
    Timeout,
)


@pytest.fixture()
def sim():
    return Simulator()


def test_all_of_fails_fast_on_child_failure(sim):
    caught = []

    def bad():
        yield Timeout(1)
        raise ValueError("child broke")

    def slow():
        yield Timeout(100)
        return "slow"

    def parent():
        try:
            yield AllOf([sim.spawn(bad()), sim.spawn(slow())])
        except ValueError as e:
            caught.append((sim.now, str(e)))

    sim.spawn(parent())
    sim.run()
    assert caught == [(1.0, "child broke")]  # did not wait for `slow`


def test_any_of_fails_if_loser_errors_first(sim):
    caught = []

    def bad():
        yield Timeout(1)
        raise RuntimeError("boom")

    def parent():
        try:
            yield AnyOf([sim.spawn(bad()), Timeout(50)])
        except RuntimeError:
            caught.append(sim.now)

    sim.spawn(parent())
    sim.run()
    assert caught == [1.0]


def test_any_of_winner_after_other_completes_is_ignored(sim):
    results = []

    def child(d, v):
        yield Timeout(d)
        return v

    def parent():
        winner = yield AnyOf([sim.spawn(child(1, "a")), sim.spawn(child(2, "b"))])
        results.append(winner)
        yield Timeout(10)  # let the loser finish too

    sim.spawn(parent())
    sim.run()
    assert results == [(0, "a")]


def test_event_callback_added_after_trigger_fires(sim):
    ev = sim.event()
    ev.succeed("late")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_kill_idempotent(sim):
    def sleeper():
        yield Timeout(100)

    proc = sim.spawn(sleeper())
    sim.run(until=1.0)
    proc.kill()
    proc.kill()  # no error
    sim.run()
    with pytest.raises(ProcessKilled):
        _ = proc.result


def test_killed_process_pending_timeout_cancelled(sim):
    def sleeper():
        yield Timeout(100)

    proc = sim.spawn(sleeper())
    sim.run(until=1.0)
    proc.kill()
    # the pending wakeup at t=100 was disarmed: queue drains immediately
    sim.run()
    assert sim.now < 100


def test_timeout_carries_value(sim):
    got = []

    def proc():
        value = yield Timeout(5, value="payload")
        got.append(value)

    sim.spawn(proc())
    sim.run()
    assert got == ["payload"]


def test_nested_all_of_any_of(sim):
    def child(d, v):
        yield Timeout(d)
        return v

    def parent():
        results = yield AllOf([
            AnyOf([sim.spawn(child(5, "x")), sim.spawn(child(1, "y"))]),
            Timeout(3, "t"),
        ])
        return results

    proc = sim.spawn(parent())
    sim.run()
    assert proc.result == [(1, "y"), "t"]
    assert sim.now == 5.0  # losers still ran to completion
