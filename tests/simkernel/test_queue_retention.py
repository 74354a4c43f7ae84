"""The calendar queue keeps only live entries, however long the run.

Every long simulation ends up with the whole queue in one calendar
bucket (the horizon at infinity), after which no refill ever replaces
the near tier.  Fired entries must still be let go: the queue trims the
consumed prefix once it outgrows ``min_bucket`` and the queued entries,
so with a few self-rescheduling chains what it holds stays within the
queued entries plus ``min_bucket``, and a fired callback's owner can be
garbage-collected.
"""

import gc
import weakref

import pytest

from repro.simkernel import Simulator
from repro.simkernel.calqueue import CalendarQueue

EVENTS = 50_000
CHAINS = 8


def retained(queue):
    """Items the queue holds, fired prefix included."""
    return len(queue._near) + len(queue._far)


class Owner:
    def ping(self):
        pass


@pytest.mark.parametrize(
    "make_queue",
    [CalendarQueue, lambda: CalendarQueue(min_bucket=64)],
    ids=["default", "min_bucket=64"],
)
def test_fired_entries_are_released(make_queue):
    queue = make_queue()
    sim = Simulator(queue=queue)
    excess = []

    def tick(chain):
        if sim.events_executed < EVENTS:
            sim.schedule(1.0 + chain % 3, tick, chain)
            excess.append(retained(queue) - len(queue))

    owner = Owner()
    sim.schedule(0.5, owner.ping)
    for chain in range(CHAINS):
        sim.schedule(0.0, tick, chain)
    owner_ref = weakref.ref(owner)
    del owner

    sim.run()

    assert sim.events_executed >= EVENTS
    assert len(excess) >= EVENTS - CHAINS
    assert max(excess) <= queue.min_bucket
    gc.collect()
    assert owner_ref() is None, "a fired callback's owner is still reachable"


def test_a_fired_callback_is_released_when_it_fires():
    """Without waiting for a trim or a collection: the consumed slot is
    overwritten as it is taken, so only refcounting is needed."""
    sim = Simulator(queue=CalendarQueue())
    owner = Owner()
    owner_ref = weakref.ref(owner)
    sim.schedule(1.0, owner.ping)
    del owner
    seen = []
    sim.schedule(2.0, lambda: seen.append(owner_ref()))
    sim.run()
    assert seen == [None]
