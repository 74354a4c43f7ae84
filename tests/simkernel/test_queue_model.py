"""Hypothesis proof that the simulator's event queue meets its contract.

:class:`SortedListModel` writes the contract out the slow and obvious
way: one ascending list of ``(time, seq, handle)``, lazy cancellation,
dead heads shed as they surface, and the compaction rule (more than
``_COMPACT_FLOOR`` dead entries that outnumber the live ones).  The same
random program of schedules, cancels, steps, peeks and bounded or
unbounded runs drives both :class:`~repro.simkernel.Simulator` and the
model, and every observation must match: the fire order with its clock
readings, every ``step``/``peek`` result, and ``now``, ``dead_entries``,
``compactions``, ``events_executed`` and the queued length after every
operation.  Fired callbacks schedule children and cancel handles
(mid-run, so a compaction can happen while :meth:`Simulator.run` holds
its heap alias).
"""

from bisect import insort

from hypothesis import example, given, settings, strategies as st

from repro.simkernel import Simulator
from repro.simkernel.kernel import _COMPACT_FLOOR, _Entry

# Small delta palette with repeats at 0.0 so time ties occur constantly.
_DELTAS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0, 10.0])


class SortedListModel:
    """The event-queue contract on a sorted list."""

    def __init__(self):
        self.now = 0.0
        self.queue = []
        self.seq = 0
        self.dead_entries = 0
        self.compactions = 0
        self.events_executed = 0

    def schedule(self, delay, fn, *args):
        handle = _Entry(fn, args)
        insort(self.queue, (self.now + delay, self.seq, handle))
        self.seq += 1
        return handle

    def cancel(self, handle):
        if handle.alive:
            handle.alive = False
            self.dead_entries += 1
            if (self.dead_entries > _COMPACT_FLOOR
                    and 2 * self.dead_entries > len(self.queue)):
                self.queue = [item for item in self.queue if item[2].alive]
                self.dead_entries = 0
                self.compactions += 1

    def peek(self):
        while self.queue and not self.queue[0][2].alive:
            del self.queue[0]
            self.dead_entries -= 1
        return self.queue[0][0] if self.queue else None

    def step(self):
        if self.peek() is None:
            return False
        self.now, _, handle = self.queue.pop(0)
        self.events_executed += 1
        handle.alive = False
        handle.fn(*handle.args)
        return True

    def run(self, until=None):
        while self.peek() is not None and (until is None or self.peek() <= until):
            self.step()
        if until is not None:
            self.now = until


#: Cancel and burst sizes: mostly small, sometimes past the compaction floor.
_COUNTS = st.sampled_from([0, 1, 1, 2, 5, 40, 70, 100])

#: What a fired callback does: schedule children at these deltas, then
#: cancel ``count`` handles starting at index ``start``.
_ACTIONS = st.lists(
    st.tuples(
        st.lists(_DELTAS, max_size=3),
        st.integers(min_value=0, max_value=10**6),
        _COUNTS,
    ),
    min_size=1,
    max_size=6,
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _DELTAS, st.integers(0, 10**6)),
        st.tuples(st.just("schedule"), _DELTAS, st.integers(0, 10**6)),
        st.tuples(st.just("burst"), _DELTAS, _COUNTS),
        st.tuples(st.just("cancel"), st.integers(0, 10**6), _COUNTS),
        st.tuples(st.just("step"), st.none(), st.none()),
        st.tuples(st.just("peek"), st.none(), st.none()),
        st.tuples(st.just("run_until"), _DELTAS, st.none()),
        st.tuples(st.just("run"), st.none(), st.none()),
    ),
    max_size=60,
)


def _drive(queue, queued, ops, actions):
    """Interpret *ops* on *queue*; return the full observation log."""
    log = []
    handles = []

    def cancel(start, count):
        for offset in range(count if handles else 0):
            queue.cancel(handles[(start + offset) % len(handles)])

    def mark(tag):
        log.append(("fire", queue.now, tag))

    def hit(tag, action, depth):
        log.append(("fire", queue.now, tag))
        children, start, count = actions[action % len(actions)]
        if depth < 2:
            for index, delta in enumerate(children):
                handles.append(queue.schedule(
                    delta, hit, f"{tag}.{index}", action + 1 + index, depth + 1
                ))
        cancel(start, count)

    for kind, arg, extra in ops:
        if kind == "schedule":
            handles.append(queue.schedule(arg, hit, f"e{len(handles)}", extra, 0))
        elif kind == "burst":
            for index in range(extra):
                handles.append(queue.schedule(
                    arg + index % 3, mark, f"b{len(handles)}"
                ))
        elif kind == "cancel":
            cancel(arg, extra)
        elif kind == "step":
            log.append(("step", queue.step()))
        elif kind == "peek":
            log.append(("peek", queue.peek()))
        elif kind == "run_until":
            queue.run(until=queue.now + arg)
        else:
            queue.run()
        log.append(("state", queue.now, queue.dead_entries, queue.compactions,
                    queue.events_executed, queued()))
    queue.run()  # flush: the tail order must match too
    log.append(("final", queue.now, queue.dead_entries, queue.compactions,
                queue.events_executed, queued()))
    return log


@settings(max_examples=300, deadline=None)
@given(ops=_OPS, actions=_ACTIONS)
# a compaction inside run(): a callback cancels most of a queued burst
@example(
    ops=[("burst", 5.0, 100), ("schedule", 1.0, 0), ("run", None, None)],
    actions=[([0.0], 0, 80)],
)
# a compaction from outside, then bounded runs across the survivors
@example(
    ops=[("burst", 1.0, 90), ("cancel", 3, 80), ("peek", None, None),
         ("run_until", 1.0, None), ("step", None, None), ("run", None, None)],
    actions=[([], 0, 0)],
)
def test_simulator_matches_the_sorted_list_model(ops, actions):
    sim = Simulator()
    model = SortedListModel()
    observed = _drive(sim, lambda: len(sim._heap), ops, actions)
    expected = _drive(model, lambda: len(model.queue), ops, actions)
    assert observed == expected
