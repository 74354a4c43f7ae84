"""Energy accounting: per-node watt models integrated over sim time.

The paper's clusters are always-on; the tri-stable extension makes power
a managed resource, so this package gives every node a watt model
(:class:`~repro.energy.model.PowerModel`) and integrates it over the
power-state/busy-core history (:class:`~repro.energy.meter.EnergyMeter`)
into joules.  The meter traces one ``energy.model`` event with its watt
curve, one ``energy.state`` event per node attach and power transition,
and ``energy.report`` totals at finalisation; busy cores come from the
schedulers' ``job.started`` events, which carry each job's cores per
host.  The ``energy-conserved`` trace invariant replays the meter from
those events and fails the run if a traced draw or a reported total
disagrees.
"""

from repro.energy.meter import EnergyMeter, NodeEnergyAccount
from repro.energy.model import PowerModel

__all__ = [
    "EnergyMeter",
    "NodeEnergyAccount",
    "PowerModel",
]
