"""Kernel event-queue micro-benchmarks.

The DES hot loop is schedule/fire/cancel; everything else in the
reproduction rides on it.  ``test_bench_sim_round_trip`` times a whole
``Simulator`` round trip on clustered event times with heavy ties and a
25% cancellation rate, the shape the simulated cluster produces
(communicator cycles, boot timers, heartbeat beats, walltime guards that
rarely fire).

``test_queue_retains_only_live_entries`` gates the queue's memory: it
counts entries, not seconds, so a noisy host cannot flake it.
"""

from repro.simkernel import Simulator
from repro.simkernel.kernel import _COMPACT_FLOOR

#: Offsets within one 600s "cycle": three zeros give a heavy tie rate.
_PALETTE = (0.0, 0.0, 0.0, 1.0, 5.0, 30.0, 59.0)


def _sim_round_trip(n=50_000):
    """End-to-end Simulator cost: schedule through fire, with cancels."""
    sim = Simulator()
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


def test_bench_sim_round_trip(benchmark):
    expected = 50_000 - 50_000 // 4
    assert benchmark(_sim_round_trip) == expected


def test_queue_retains_only_live_entries():
    """A long run holds its live entries plus at most the dead ones the
    compaction rule allows.

    Self-rescheduling beats each set a walltime guard and cancel the one
    they set a beat earlier.  Fired entries must leave the queue, and the
    cancelled guards may not outgrow ``max(_COMPACT_FLOOR, live)``.
    """
    sim = Simulator()
    events = 100_000
    chains = 64
    guards = {}
    held = []

    def beat(chain, step):
        if sim.events_executed < events:
            if chain in guards:
                sim.cancel(guards[chain])
            guards[chain] = sim.schedule(3_600.0, int)
            sim.schedule(1.0 + _PALETTE[step % len(_PALETTE)], beat, chain,
                         step + 1)
            held.append((len(sim._heap), sim.dead_entries))

    for chain in range(chains):
        sim.schedule(0.0, beat, chain, chain)
    sim.run()

    assert sim.events_executed >= events
    assert sim.compactions > 0
    worst_dead = max(dead - max(_COMPACT_FLOOR, queued - dead)
                     for queued, dead in held)
    assert worst_dead <= 0, (
        f"{worst_dead} dead entries past the compaction bound"
    )
    assert max(queued for queued, _ in held) <= 2 * chains + max(
        _COMPACT_FLOOR, 2 * chains
    ), "the queue held fired entries past its live ones"
