"""Edge cases for event callbacks and process teardown."""

import pytest

from repro.simkernel import ProcessKilled, Simulator, Timeout


@pytest.fixture()
def sim():
    return Simulator()


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
