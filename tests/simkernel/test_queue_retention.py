"""The event queue keeps only live entries, however long the run.

A fired entry leaves the heap as it is popped, so its callback (and
whatever a bound method keeps alive) is freed by refcounting alone.
Cancelled entries stay queued until they surface or a compaction drops
them, and a compaction runs as soon as they exceed ``_COMPACT_FLOOR``
and outnumber the live ones: with self-rescheduling chains that each
cancel the guard they set one beat earlier, what the heap holds stays
within the live entries plus that bound.
"""

import gc
import weakref

from repro.simkernel import Simulator
from repro.simkernel.kernel import _COMPACT_FLOOR

EVENTS = 50_000
CHAINS = 8


class Owner:
    def ping(self):
        pass


def test_fired_entries_are_released():
    sim = Simulator()
    guards = {}
    excess = []
    held = []

    def tick(chain):
        if sim.events_executed < EVENTS:
            # a walltime guard that never fires: set, then cancelled a
            # beat later by its successor
            if chain in guards:
                sim.cancel(guards[chain])
            guards[chain] = sim.schedule(10_000.0, int)
            sim.schedule(1.0 + chain % 3, tick, chain)
            live = len(sim._heap) - sim.dead_entries
            excess.append(sim.dead_entries - max(_COMPACT_FLOOR, live))
            held.append(len(sim._heap))

    owner = Owner()
    sim.schedule(0.5, owner.ping)
    for chain in range(CHAINS):
        sim.schedule(0.0, tick, chain)
    owner_ref = weakref.ref(owner)
    del owner

    sim.run()

    assert sim.events_executed >= EVENTS
    assert len(excess) >= EVENTS - CHAINS
    assert max(excess) <= 0, "dead entries outgrew the compaction bound"
    assert sim.compactions > 0
    # fired entries are gone: the chains' next beats, their guards and
    # the dead guards not yet compacted away are all the heap holds
    assert max(held) <= 2 * CHAINS + _COMPACT_FLOOR
    assert len(sim._heap) == 0
    gc.collect()
    assert owner_ref() is None, "a fired callback's owner is still reachable"


def test_a_fired_callback_is_released_when_it_fires():
    """Without waiting for a collection: the fired entry leaves the heap
    when it is popped, so only refcounting is needed."""
    sim = Simulator()
    owner = Owner()
    owner_ref = weakref.ref(owner)
    sim.schedule(1.0, owner.ping)
    del owner
    seen = []
    sim.schedule(2.0, lambda: seen.append(owner_ref()))
    sim.run()
    assert seen == [None]
