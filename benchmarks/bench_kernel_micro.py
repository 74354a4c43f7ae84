"""Kernel event-queue micro-benchmarks: heap vs calendar at the seam.

The DES hot loop is schedule/fire/cancel; everything else in the
reproduction rides on it.  These benches time the two ``EventQueue``
implementations on the same pre-built entry set — clustered event times
with heavy ties and a 25% cancellation rate, the shape the simulated
cluster actually produces (communicator cycles, boot timers, heartbeat
beats, walltime guards that rarely fire).

``test_calendar_drain_speedup_floor`` is the acceptance gate for the
calendar queue: the drain/fire phase (the per-event cost every
simulation pays) must be at least 5x faster than the heap's, and the
whole push+cancel+drain cycle at least 2x.  Phases are timed
best-of-three so allocator warm-up noise cannot fail the gate.

``test_calendar_retains_only_live_entries`` gates the calendar's memory:
it counts items, not seconds, so a noisy host cannot flake it.
"""

import time

import numpy as np

from repro.simkernel import Simulator
from repro.simkernel.calqueue import CalendarQueue
from repro.simkernel.kernel import HeapEventQueue, _Entry

#: Entry count for the phase-timed gate; large enough that heap sift
#: costs dominate constant overheads, small enough for CI.
N_ENTRIES = 200_000

#: Offsets within one 600s "cycle": three zeros give a heavy tie rate.
_PALETTE = (0.0, 0.0, 0.0, 1.0, 5.0, 30.0, 59.0)


def _entries(n=N_ENTRIES, seed=7):
    """Pre-built entries with clustered times and deliberate ties."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(_PALETTE), size=n)
    return [
        _Entry(600.0 * (seq // 512) + _PALETTE[picks[seq]], seq, int, ())
        for seq in range(n)
    ]


def _run_phases(queue, entries):
    """Time push / cancel / drain at the queue seam; return seconds."""
    push = queue.push
    start = time.perf_counter()  # reprolint: disable=DET001 -- benchmark gate; wall time never enters a simulation
    for entry in entries:
        push(entry)
    pushed = time.perf_counter()  # reprolint: disable=DET001 -- benchmark gate; wall time never enters a simulation
    cancel = queue.cancel
    for entry in entries[::4]:
        cancel(entry)
    cancelled = time.perf_counter()  # reprolint: disable=DET001 -- benchmark gate; wall time never enters a simulation
    fired = []
    queue.drain(fired.append)
    drained = time.perf_counter()  # reprolint: disable=DET001 -- benchmark gate; wall time never enters a simulation
    assert len(fired) == len(entries) - len(entries[::4])
    assert len(queue) == 0
    return pushed - start, cancelled - pushed, drained - cancelled


def _best_of(make_queue, rounds=3):
    """Per-phase minima over *rounds* runs (fresh entries each round)."""
    best = [float("inf")] * 3
    for round_index in range(rounds):
        times = _run_phases(make_queue(), _entries(seed=7 + round_index))
        best = [min(old, new) for old, new in zip(best, times)]
    return best


def test_calendar_drain_speedup_floor():
    """The acceptance gate: calendar drain >=5x heap, full cycle >=2x.

    Measured headroom is ~2x above both floors (drain lands around
    6-10x, the cycle around 3-4x), so the gate survives noisy CI hosts
    without going soft on a real regression.
    """
    heap_push, heap_cancel, heap_drain = _best_of(HeapEventQueue)
    cal_push, cal_cancel, cal_drain = _best_of(CalendarQueue)

    drain_speedup = heap_drain / cal_drain if cal_drain > 0 else float("inf")
    heap_total = heap_push + heap_cancel + heap_drain
    cal_total = cal_push + cal_cancel + cal_drain
    total_speedup = heap_total / cal_total if cal_total > 0 else float("inf")

    assert drain_speedup >= 5.0, (
        f"calendar drain only {drain_speedup:.1f}x faster than heap "
        f"(heap {heap_drain * 1e3:.0f}ms, calendar {cal_drain * 1e3:.0f}ms)"
    )
    assert total_speedup >= 2.0, (
        f"calendar full cycle only {total_speedup:.1f}x faster than heap "
        f"(heap {heap_total * 1e3:.0f}ms, calendar {cal_total * 1e3:.0f}ms)"
    )


def _drain_prepared(make_queue):
    entries = _entries()
    queue = make_queue()
    for entry in entries:
        queue.push(entry)
    for entry in entries[::4]:
        queue.cancel(entry)
    fired = []
    queue.drain(fired.append)
    return len(fired)


def test_bench_queue_drain_heap(benchmark):
    expected = N_ENTRIES - N_ENTRIES // 4
    assert benchmark(_drain_prepared, HeapEventQueue) == expected


def test_bench_queue_drain_calendar(benchmark):
    expected = N_ENTRIES - N_ENTRIES // 4
    assert benchmark(_drain_prepared, CalendarQueue) == expected


def _sim_round_trip(queue_cls, n=50_000):
    """End-to-end Simulator cost: schedule through fire, with cancels."""
    sim = Simulator(queue=queue_cls())
    sink = []
    handles = [
        sim.schedule(600.0 * (i // 512) + _PALETTE[i % len(_PALETTE)],
                     sink.append, i)
        for i in range(n)
    ]
    for handle in handles[::4]:
        sim.cancel(handle)
    sim.run()
    return len(sink)


def test_bench_sim_round_trip_heap(benchmark):
    expected = 50_000 - 50_000 // 4
    assert benchmark(_sim_round_trip, HeapEventQueue) == expected


def test_bench_sim_round_trip_calendar(benchmark):
    expected = 50_000 - 50_000 // 4
    assert benchmark(_sim_round_trip, CalendarQueue) == expected


def test_calendar_retains_only_live_entries():
    """A long run holds its live entries plus at most ``min_bucket``.

    Self-rescheduling beats put the whole queue in one bucket (horizon
    at infinity), so no refill ever replaces the near tier; the queue
    must still drop the tuples of fired entries instead of keeping one
    per event of the run.
    """
    queue = CalendarQueue()
    sim = Simulator(queue=queue)
    events = 100_000
    excess = []

    def beat(step):
        if sim.events_executed < events:
            sim.schedule(1.0 + _PALETTE[step % len(_PALETTE)], beat, step + 1)
            excess.append(len(queue._near) + len(queue._far) - len(queue))

    for chain in range(64):
        sim.schedule(0.0, beat, chain)
    sim.run()

    assert sim.events_executed >= events
    assert max(excess) <= queue.min_bucket, (
        f"calendar held {max(excess)} fired entries past its live ones "
        f"(trim threshold {queue.min_bucket})"
    )
