"""Hypothesis proof that the calendar queue is the heap, observably.

``CalendarQueue`` exists purely for speed: the kernel's correctness
story is that it maintains the exact ``(time, seq)`` total order and the
exact dead-entry accounting of the reference ``HeapEventQueue``.  These
properties drive both queues through identical random programs —
pushes (with deliberate time ties), cancels, pops, peeks, bounded and
unbounded drains, runs of self-rescheduling events — and require the
*entire* observation log to match: every fired ``(time, seq)``, every
peek, and the ``len/dead/compactions`` counters after every step.

Tiny ``min_bucket`` values force the calendar machinery (refill cuts,
near-overflow spills, lazy far-sorts, consumed-prefix trims) to run
constantly, so the tie-safety of the bucket boundaries is exercised far
harder than the default configuration ever would in a real run.

``tests/experiments/test_queue_trace_equivalence.py`` closes the same
loop at whole-experiment granularity (byte-identical traces).
"""

from hypothesis import given, settings, strategies as st

from repro.simkernel import Simulator, Timeout
from repro.simkernel.calqueue import CalendarQueue
from repro.simkernel.kernel import HeapEventQueue, _Entry

# Small delta palette with repeats at 0.0 so time ties (the dangerous
# case for bucket boundaries) occur constantly.
_DELTAS = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0, 10.0])

# "steps" fires heads that each reschedule themselves, the simulator's
# steady state; it and "push" are listed twice so that queues build up
# and the consumed-prefix trim runs in a good share of the examples.
_STEPS = st.tuples(st.just("steps"), st.lists(_DELTAS, min_size=1, max_size=24))

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _DELTAS),
        st.tuples(st.just("push"), _DELTAS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("peek"), st.none()),
        st.tuples(st.just("drain_until"), _DELTAS),
        st.tuples(st.just("drain_all"), st.none()),
        _STEPS,
        _STEPS,
    ),
    max_size=80,
)


def _run_program(queue, ops):
    """Interpret *ops* against *queue*; return the full observation log.

    Mirrors the kernel's contract: pushes never go below the time of the
    last fired entry (``Simulator.schedule_at`` enforces ``time >= now``),
    and a fired entry is marked dead (``Simulator._fire`` does this) so a
    late cancel of its handle stays a no-op.
    """
    entries = []
    log = []
    now = 0.0
    seq = 0

    def fire(entry):
        nonlocal now
        now = entry.time
        entry.alive = False
        log.append(("fire", entry.time, entry.seq))

    def push(delta):
        nonlocal seq
        entry = _Entry(now + delta, seq, int, ())
        seq += 1
        entries.append(entry)
        queue.push(entry)

    for kind, arg in ops:
        if kind == "push":
            push(arg)
        elif kind == "steps":
            for delta in arg:
                entry = queue.pop()
                if entry is None:
                    log.append(("pop", None))
                    break
                fire(entry)
                push(delta)
        elif kind == "cancel":
            if entries:
                queue.cancel(entries[arg % len(entries)])
        elif kind == "pop":
            entry = queue.pop()
            if entry is None:
                log.append(("pop", None))
            else:
                fire(entry)
        elif kind == "peek":
            entry = queue.peek()
            log.append(
                ("peek", None if entry is None else (entry.time, entry.seq))
            )
        elif kind == "drain_until":
            queue.drain(fire, until=now + arg)
        else:  # drain_all
            queue.drain(fire)
        log.append(("state", len(queue), queue.dead, queue.compactions))

    queue.drain(fire)  # flush: the tail order must match too
    log.append(("final", len(queue), queue.dead, queue.compactions))
    return log


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, min_bucket=st.sampled_from([1, 2, 3, 8]))
def test_calendar_matches_heap_for_every_observation(ops, min_bucket):
    heap_log = _run_program(HeapEventQueue(), ops)
    cal_log = _run_program(CalendarQueue(min_bucket=min_bucket), ops)
    assert cal_log == heap_log


@settings(max_examples=100, deadline=None)
@given(
    ops=_OPS,
    min_bucket=st.sampled_from([1, 2, 4]),
)
def test_calendar_drains_empty_and_exercises_resizes(ops, min_bucket):
    queue = CalendarQueue(min_bucket=min_bucket)
    _run_program(queue, ops)
    # after the final flush nothing may linger in either tier
    assert len(queue) == 0
    assert queue.pop() is None
    pushes = sum(1 for kind, _ in ops if kind == "push")
    if pushes > min_bucket:
        # tiny buckets must actually force the calendar machinery to run;
        # a zero here would mean the property never left the near tier
        assert queue.resizes > 0


# -- kernel-level: whole Simulator runs, sliced by run(until=) ---------------

_PROGRAM = st.lists(
    st.tuples(
        _DELTAS,                                   # schedule offset
        st.booleans(),                             # cancel it mid-run?
        st.integers(min_value=0, max_value=3),     # respawns inside callback
    ),
    min_size=1,
    max_size=40,
)


def _run_sim(queue, program, slices):
    sim = Simulator(queue=queue)
    fired = []
    handles = []

    def hit(tag, respawn):
        fired.append((sim.now, tag))
        for i in range(respawn):
            handles.append(
                sim.schedule(0.0 if i == 0 else float(i), hit, f"{tag}.{i}", 0)
            )

    for index, (delay, cancel, respawn) in enumerate(program):
        handles.append(sim.schedule(delay, hit, f"job{index}", respawn))
    for index, (_, cancel, _) in enumerate(program):
        if cancel:
            sim.cancel(handles[index])

    def churn():
        while True:
            yield Timeout(2.0)
            if handles:
                sim.cancel(handles[len(fired) % len(handles)])

    sim.spawn(churn(), name="churn")
    clock = 0.0
    for step in slices:
        clock += step
        sim.run(until=clock)
    return fired, sim.now, sim.events_executed


@settings(max_examples=60, deadline=None)
@given(
    program=_PROGRAM,
    slices=st.lists(_DELTAS, min_size=1, max_size=6),
)
def test_simulator_runs_identically_on_both_queues(program, slices):
    heap = _run_sim(HeapEventQueue(), program, slices)
    calendar = _run_sim(CalendarQueue(), program, slices)
    assert calendar == heap
