"""Tri-stable power state machine: legality under arbitrary op sequences.

A Hypothesis state machine drives one node through random power
operations (including boots that fail on a wiped MBR) and checks two
things after every step: the node always settles into a resting state,
and every transition the power-state hooks reported is one of
the documented legal edges.  Illegal API calls must raise
``MiddlewareError`` without moving the state at all.

The second half pins the interaction that makes elastic suspension safe
at all: a suspended node parks via orderly service stops, so the
heartbeat monitor sees planned downtime and never fences it — while a
genuine crash on the same rig still escalates to FENCED.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.errors import MiddlewareError
from repro.hardware import ComputeNode, INTEL_Q8200, NodeState
from repro.hardware.nic import Nic, mac_for_index
from repro.health import HealthState, HeartbeatMonitor
from repro.simkernel import MINUTE, Simulator
from repro.simkernel.rng import RngStreams
from tests.conftest import make_v1_disk

#: states a node can rest in between operations (transients always settle)
RESTING = {
    NodeState.OFF, NodeState.UP, NodeState.FAILED,
    NodeState.SUSPENDED, NodeState.DEPROVISIONED,
}

#: every legal (old, new) edge of the tri-stable machine
LEGAL_TRANSITIONS = {
    # power application / boot chain
    (NodeState.OFF, NodeState.BOOTING),
    (NodeState.FAILED, NodeState.BOOTING),
    (NodeState.BOOTING, NodeState.UP),
    (NodeState.BOOTING, NodeState.FAILED),
    # graceful shutdown paths (reboot, suspend entry)
    (NodeState.UP, NodeState.SHUTTING_DOWN),
    (NodeState.SHUTTING_DOWN, NodeState.BOOTING),
    (NodeState.SHUTTING_DOWN, NodeState.SUSPENDED),
    # suspend exit
    (NodeState.SUSPENDED, NodeState.BOOTING),
    # hard power cut (admin power_off or crash) from any powered state
    (NodeState.UP, NodeState.OFF),
    (NodeState.SUSPENDED, NodeState.OFF),
    (NodeState.FAILED, NodeState.OFF),
    (NodeState.BOOTING, NodeState.OFF),
    (NodeState.SHUTTING_DOWN, NodeState.OFF),
    # burst pool membership
    (NodeState.UP, NodeState.DEPROVISIONED),
    (NodeState.OFF, NodeState.DEPROVISIONED),
    (NodeState.SUSPENDED, NodeState.DEPROVISIONED),
    (NodeState.FAILED, NodeState.DEPROVISIONED),
    (NodeState.DEPROVISIONED, NodeState.BOOTING),
}


def make_node(sim, seed=1):
    node = ComputeNode(
        sim=sim,
        name="enode01",
        spec=INTEL_Q8200,
        nic=Nic(mac_for_index(1)),
        rng=RngStreams(seed),
    )
    node.disk = make_v1_disk()
    return node


class PowerStateMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.node = make_node(self.sim)
        self.transitions = []
        self.node.hooks.register(
            "power_state",
            lambda _node, old, new: self.transitions.append((old, new)),
        )

    def _attempt(self, op, legal_from):
        before = self.node.state
        if before in legal_from:
            op()
            self.sim.run()
        else:
            with pytest.raises(MiddlewareError):
                op()
            assert self.node.state is before, (
                f"rejected op still moved the state from {before}"
            )

    @rule()
    def power_on(self):
        self._attempt(self.node.power_on,
                      {NodeState.OFF, NodeState.FAILED})

    @rule()
    def reboot(self):
        self._attempt(self.node.reboot, {NodeState.UP})

    @rule()
    def power_off(self):
        self._attempt(
            self.node.power_off,
            {NodeState.OFF, NodeState.UP, NodeState.SUSPENDED,
             NodeState.FAILED},
        )

    @rule()
    def suspend(self):
        was_up = self.node.state is NodeState.UP
        os_before = self.node.os_name
        self._attempt(self.node.suspend, {NodeState.UP})
        if was_up:
            # the RAM image remembers which OS to wake back into
            assert self.node.state is NodeState.SUSPENDED
            assert self.node.suspended_os_name == os_before

    @rule()
    def resume(self):
        expected_os = self.node.suspended_os_name
        self._attempt(self.node.resume, {NodeState.SUSPENDED})
        if expected_os is not None:
            assert self.node.state is NodeState.UP
            assert self.node.os_name == expected_os

    @rule()
    def deprovision(self):
        self._attempt(
            self.node.deprovision,
            {NodeState.OFF, NodeState.UP, NodeState.SUSPENDED,
             NodeState.FAILED},
        )

    @rule()
    def provision(self):
        self._attempt(self.node.provision, {NodeState.DEPROVISIONED})

    @rule()
    def crash(self):
        was_powered = self.node.state not in (
            NodeState.OFF, NodeState.FAILED, NodeState.DEPROVISIONED
        )
        assert self.node.crash() == was_powered
        assert self.node.state in (
            NodeState.OFF, NodeState.FAILED, NodeState.DEPROVISIONED
        )
        # RAM does not survive a power cut
        assert self.node.suspended_os_name is None

    @rule()
    def wipe_mbr(self):
        # an admin mishap: the next cold boot will land in FAILED
        self.node.disk.mbr.wipe()

    @rule()
    def repair_disk(self):
        self.node.disk = make_v1_disk()

    @invariant()
    def settles_into_a_resting_state(self):
        assert self.node.state in RESTING

    @invariant()
    def only_legal_edges_ever_fire(self):
        illegal = [t for t in self.transitions if t not in LEGAL_TRANSITIONS]
        assert illegal == [], f"illegal power transitions: {illegal}"

    @invariant()
    def suspended_iff_ram_image(self):
        if self.node.state is NodeState.SUSPENDED:
            assert self.node.suspended_os_name is not None
        else:
            assert self.node.suspended_os_name is None


PowerStateMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
)
TestPowerStateMachine = PowerStateMachine.TestCase


# ---------------------------------------------------------------------------
# Suspension is fence-immune; crashing is not.
# ---------------------------------------------------------------------------

def _monitored_node():
    sim = Simulator()
    monitor = HeartbeatMonitor(
        sim, beat_s=60.0, suspect_misses=2, fence_misses=5
    )
    node = make_node(sim)
    # same wiring the middleware uses: the agent is installed on every
    # fresh OS instance, so it exists after boots *and* resumes
    node.hooks.register("provisioners", monitor.attach_agent)
    monitor.start()
    node.power_on()
    # the monitor's poll loop never idles, so every run must be bounded
    sim.run(until=10 * MINUTE)
    assert node.state is NodeState.UP
    return sim, monitor, node


def test_suspended_node_is_never_fenced():
    sim, monitor, node = _monitored_node()
    node.suspend()
    sim.run(until=sim.now + 2 * MINUTE)
    assert node.state is NodeState.SUSPENDED

    # park far past the fence window (5 × 60 s): planned downtime —
    # the agent deregistered on the way down, so no beats are expected
    sim.run(until=sim.now + 30 * MINUTE)
    health = monitor.health(node.name)
    assert health.state is HealthState.HEALTHY
    assert health.fence_count == 0
    assert monitor.fences == monitor.suspects == 0

    node.resume()
    sim.run(until=sim.now + 2 * MINUTE)
    assert node.state is NodeState.UP
    sim.run(until=sim.now + 10 * MINUTE)
    assert monitor.health(node.name).state is HealthState.HEALTHY


def test_crash_on_the_same_rig_still_fences():
    sim, monitor, node = _monitored_node()
    node.crash()
    sim.run(until=sim.now + 30 * MINUTE)
    health = monitor.health(node.name)
    assert health.state is HealthState.FENCED
    assert health.fence_count == 1
    assert monitor.fences == 1
