"""Seeded defect: a meter that charges the wrong watts must be caught.

The meter below charges ``core_w`` for one core fewer than a node holds.
Its joules agree with its own draw, so re-integrating the draw the meter
reports cannot see the slip.  ``energy-conserved`` replays the draw from
what the meter heard instead -- power transitions, the cores on each
``job.started``, the power model -- and must flag it, while the honest
meter on the identical timeline stays clean.
"""

import repro.core.middleware as middleware
from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.energy import EnergyMeter
from repro.sched import JobRequest
from repro.simkernel import MINUTE
from repro.trace import check_events


class ShortCoreMeter(EnergyMeter):
    """Draws one busy core fewer than the node holds."""

    def _refresh(self, account):
        account.watts = self.model.node_watts(
            account.state, account.busy_cores - 1
        )


def _run_timeline(meter_cls, monkeypatch):
    monkeypatch.setattr(middleware, "EnergyMeter", meter_cls)
    hybrid = build_hybrid_cluster(
        num_nodes=2, seed=7, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=5 * MINUTE),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    hybrid.submit(
        "linux", JobRequest(name="solver", cores=4, runtime_s=20 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 40 * MINUTE)
    hybrid.finalize()
    return hybrid


def test_honest_meter_passes_the_invariant(monkeypatch):
    hybrid = _run_timeline(EnergyMeter, monkeypatch)
    assert type(hybrid.energy) is EnergyMeter
    assert check_events(hybrid.tracer.events, names=["energy-conserved"]) == []


def test_short_core_meter_is_caught(monkeypatch):
    hybrid = _run_timeline(ShortCoreMeter, monkeypatch)
    assert type(hybrid.energy) is ShortCoreMeter
    events = hybrid.tracer.events
    assert any(e.kind == "job.started" for e in events)
    violations = check_events(events, names=["energy-conserved"])
    assert violations, "a meter one core short sailed past energy-conserved"
    assert all(v.invariant == "energy-conserved" for v in violations)
    assert any("watt history integrates to" in v.message for v in violations)
