"""Kernel edge cases, pinned on both event-queue implementations.

Each of these is a boundary the equivalence properties can hit only by
luck; here they are deterministic and named.  Everything is parametrized
over both queue classes so the seam cannot quietly diverge.
"""

import pytest

from repro.simkernel import Simulator
from repro.simkernel.calqueue import CalendarQueue
from repro.simkernel.kernel import HeapEventQueue

QUEUES = pytest.mark.parametrize(
    "make_queue", (HeapEventQueue, CalendarQueue), ids=("heap", "calendar")
)


@QUEUES
def test_run_until_on_empty_queue_leaves_clock_exactly_at_until(make_queue):
    sim = Simulator(queue=make_queue())
    sim.run(until=123.456)
    assert sim.now == 123.456
    # and again: back-to-back bounded runs behave like a wall clock
    sim.run(until=200.0)
    assert sim.now == 200.0
    assert sim.events_executed == 0


@QUEUES
def test_run_until_queue_drained_early_still_advances_clock(make_queue):
    sim = Simulator(queue=make_queue())
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.run(until=50.0)
    assert hits == [1]
    assert sim.now == 50.0


@QUEUES
def test_cancel_of_already_fired_entry_is_a_noop(make_queue):
    sim = Simulator(queue=make_queue())
    hits = []
    handle = sim.schedule(1.0, hits.append, 1)
    sim.schedule(2.0, hits.append, 2)
    sim.run(until=1.5)
    assert hits == [1]
    # the walltime-guard pattern: cancel a handle whose event already ran
    sim.cancel(handle)
    sim.cancel(handle)  # twice, for good measure
    assert sim.dead_entries == 0  # fired entries never enter dead accounting
    sim.run()
    assert hits == [1, 2]


@QUEUES
def test_peek_across_dead_heads_returns_first_live_time(make_queue):
    sim = Simulator(queue=make_queue())
    doomed = [sim.schedule(float(t), int) for t in (1, 2, 3)]
    sim.schedule(7.0, int)
    for handle in doomed:
        sim.cancel(handle)
    assert sim.dead_entries == 3
    assert sim.peek() == 7.0
    # peek sheds the dead heads it walked past
    assert sim.dead_entries == 0
    assert sim.peek() == 7.0  # idempotent


@QUEUES
def test_peek_on_fully_cancelled_queue_is_none(make_queue):
    sim = Simulator(queue=make_queue())
    handles = [sim.schedule(float(t), int) for t in (1, 2)]
    for handle in handles:
        sim.cancel(handle)
    assert sim.peek() is None
    assert len(sim._queue) == 0


def test_same_time_ordering_survives_compaction_and_bucket_resizes():
    """FIFO ties must hold across refill cuts, spills *and* a compaction.

    A tiny ``min_bucket`` forces bucket boundaries inside the tie groups,
    and cancelling enough entries mid-run triggers the compaction path;
    the surviving same-time events must still fire in schedule order.
    """
    sim = Simulator(queue=CalendarQueue(min_bucket=2))
    fired = []
    handles = []
    # 40 groups of 8 events sharing one timestamp each
    for group in range(40):
        for member in range(8):
            handles.append(
                sim.schedule(float(group), fired.append, (group, member))
            )
    # cancel two of every three -> 213 dead of 320 queued, which clears
    # both compaction gates (dead > _COMPACT_FLOOR=64, dead*2 > len)
    for index, handle in enumerate(handles):
        if index % 3 != 0:
            sim.cancel(handle)
    assert sim.compactions >= 1
    sim.run()
    expected = [
        (group, member)
        for group in range(40)
        for member in range(8)
        if (group * 8 + member) % 3 == 0
    ]
    assert fired == expected
    assert sim._queue.resizes > 0  # the boundaries were actually exercised


@QUEUES
def test_push_below_horizon_during_drain_fires_in_order(make_queue):
    """A callback scheduling at the current time runs before later events."""
    if make_queue is CalendarQueue:
        sim = Simulator(queue=CalendarQueue(min_bucket=2))
    else:
        sim = Simulator(queue=make_queue())
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.0, fired.append, "nested-now")
        sim.schedule(1.0, fired.append, "nested-later")

    sim.schedule(5.0, first)
    for t in range(6, 30):  # far tail so the calendar has a real horizon
        sim.schedule(float(t), fired.append, t)
    sim.run(until=6.5)
    # nested-now shares t=5.0 with nothing and runs immediately; the
    # pre-existing t=6.0 event out-sequences nested-later at the same time
    assert fired[:4] == ["first", "nested-now", 6, "nested-later"]
