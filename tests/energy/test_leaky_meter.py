"""Seeded defect: a leaky meter must be caught by ``energy-conserved``.

The invariant is only worth its keep if it actually fails when the
accounting is wrong.  This plants a meter whose integration seam leaks
(scales every rectangle by 2 %) into an otherwise healthy run and
asserts the oracle flags it — and that the honest meter on the identical
timeline stays clean.
"""

from repro.energy import EnergyMeter
from repro.hardware import ComputeNode, INTEL_Q8200
from repro.hardware.nic import Nic, mac_for_index
from repro.simkernel import Simulator
from repro.simkernel.rng import RngStreams
from repro.trace import check_events
from tests.conftest import make_v1_disk


class LeakyMeter(EnergyMeter):
    """Overstates every integration rectangle by 2 %.

    ``_integrate`` is the single seam every joule passes through, so
    scaling it models the whole family of accounting bugs (drift,
    double-counting, unit slips) with one line.
    """

    def _integrate(self, account, now):
        span = now - account.last_change_t
        honest = EnergyMeter._integrate
        honest(self, account, now)
        if span > 0.0:
            account.joules += 0.02 * account.watts * span


def _run_timeline(meter_cls):
    sim = Simulator()
    node = ComputeNode(
        sim=sim, name="enode01", spec=INTEL_Q8200,
        nic=Nic(mac_for_index(1)), rng=RngStreams(1),
    )
    node.disk = make_v1_disk()
    meter = meter_cls(sim)
    meter.attach_node(node)

    node.power_on()
    sim.run()
    sim.run(until=sim.now + 300.0)
    node.suspend()
    sim.run()
    sim.run(until=sim.now + 300.0)
    node.resume()
    sim.run()
    meter.finalize()
    return sim.tracer


def test_honest_meter_passes_the_invariant():
    tracer = _run_timeline(EnergyMeter)
    assert check_events(tracer.events, names=["energy-conserved"]) == []


def test_leaky_meter_is_caught():
    tracer = _run_timeline(LeakyMeter)
    violations = check_events(tracer.events, names=["energy-conserved"])
    assert violations, "a 2% energy leak sailed past energy-conserved"
    assert all(v.invariant == "energy-conserved" for v in violations)
    # the per-node report disagrees with its own watt history
    assert any("watt history integrates to" in v.message for v in violations)
