"""NodeCrash/NodeFlap plans and their injection against real hardware."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan, NodeCrash, NodeFlap
from repro.hardware import INTEL_Q8200, ComputeNode, NodeState
from repro.hardware.nic import Nic, mac_for_index
from repro.netsvc import Network
from repro.simkernel import MINUTE, Simulator
from repro.simkernel.rng import RngStreams
from tests.conftest import make_v1_disk


def make_node(sim, index=1):
    node = ComputeNode(
        sim=sim,
        name=f"enode{index:02d}",
        spec=INTEL_Q8200,
        nic=Nic(mac_for_index(index)),
        rng=RngStreams(index),
    )
    node.disk = make_v1_disk()
    return node


@pytest.fixture()
def rig():
    sim = Simulator()
    network = Network(sim, latency_s=0.001)
    nodes = {f"enode{i:02d}": make_node(sim, i) for i in (1, 2)}
    for node in nodes.values():
        node.power_on()
    sim.run()
    # fault times are absolute; anchor the plans after the boots settle
    return sim, network, nodes, sim.now


# -- plan validation ----------------------------------------------------------


def test_node_crash_validation():
    NodeCrash(node="n1", at_s=0.0)  # boundary is legal
    with pytest.raises(ConfigurationError):
        NodeCrash(node="n1", at_s=-1.0)
    with pytest.raises(ConfigurationError):
        NodeCrash(node="n1", at_s=10.0, restart_after_s=0.0)


def test_node_flap_validation():
    NodeFlap(node="n1", first_at_s=0.0, down_s=60.0, period_s=120.0, count=2)
    with pytest.raises(ConfigurationError):
        NodeFlap(node="n1", first_at_s=-1.0, down_s=60.0)
    with pytest.raises(ConfigurationError):
        NodeFlap(node="n1", first_at_s=0.0, down_s=0.0)
    with pytest.raises(ConfigurationError):
        NodeFlap(node="n1", first_at_s=0.0, down_s=60.0, count=0)
    with pytest.raises(ConfigurationError):
        # overlapping cycles: the node would still be down at the next crash
        NodeFlap(node="n1", first_at_s=0.0, down_s=60.0, period_s=30.0, count=2)


def test_plan_with_node_faults_is_not_empty():
    crash = NodeCrash(node="n1", at_s=5.0)
    plan = FaultPlan(node_crashes=(crash,))
    assert plan.node_crashes == (crash,)
    flap = NodeFlap(node="n2", first_at_s=1.0, down_s=60.0, count=1)
    flappy = FaultPlan(node_flaps=(flap,))
    assert flappy.node_flaps == (flap,)


# -- injector validation ------------------------------------------------------


def test_injector_requires_node_handles(rig):
    sim, network, _nodes, t0 = rig
    plan = FaultPlan(node_crashes=(NodeCrash(node="enode01", at_s=t0 + 5.0),))
    with pytest.raises(ConfigurationError):
        FaultInjector(sim, network, RngStreams(0), plan, tracer=sim.tracer).arm()


def test_injector_rejects_unknown_target(rig):
    sim, network, nodes, t0 = rig
    plan = FaultPlan(node_crashes=(NodeCrash(node="ghost", at_s=t0 + 5.0),))
    with pytest.raises(ConfigurationError):
        FaultInjector(sim, network, RngStreams(0), plan, nodes=nodes, tracer=sim.tracer).arm()


# -- injection ----------------------------------------------------------------


def test_crash_and_restart_schedule(rig):
    sim, network, nodes, t0 = rig
    plan = FaultPlan(node_crashes=(
        NodeCrash(node="enode01", at_s=t0 + 10.0, restart_after_s=5 * MINUTE),
    ))
    injector = FaultInjector(sim, network, RngStreams(0), plan, nodes=nodes, tracer=sim.tracer)
    injector.arm()

    sim.run(until=t0 + 11.0)
    assert nodes["enode01"].state is NodeState.OFF
    assert injector.counters["node-crash:enode01"] == 1

    sim.run(until=t0 + 10.0 + 5 * MINUTE + 1.0)
    assert nodes["enode01"].state is NodeState.BOOTING
    assert injector.counters["node-restart:enode01"] == 1
    sim.run()
    assert nodes["enode01"].state is NodeState.UP
    # the bystander never flinched
    assert nodes["enode02"].state is NodeState.UP


def test_crash_without_restart_stays_dark(rig):
    sim, network, nodes, t0 = rig
    plan = FaultPlan(node_crashes=(NodeCrash(node="enode01", at_s=t0 + 10.0),))
    FaultInjector(sim, network, RngStreams(0), plan, nodes=nodes, tracer=sim.tracer).arm()
    sim.run()
    assert nodes["enode01"].state is NodeState.OFF


def test_flap_crashes_repeatedly(rig):
    sim, network, nodes, t0 = rig
    plan = FaultPlan(node_flaps=(
        NodeFlap(node="enode02", first_at_s=t0 + 10.0, down_s=2 * MINUTE,
                 period_s=20 * MINUTE, count=3),
    ))
    injector = FaultInjector(sim, network, RngStreams(0), plan, nodes=nodes, tracer=sim.tracer)
    injector.arm()
    sim.run()
    assert injector.counters["node-crash:enode02"] == 3
    assert injector.counters["node-restart:enode02"] == 3
    assert nodes["enode02"].state is NodeState.UP


def test_restart_of_already_repowered_node_is_skipped(rig):
    sim, network, nodes, t0 = rig
    plan = FaultPlan(node_crashes=(
        NodeCrash(node="enode01", at_s=t0 + 10.0, restart_after_s=10 * MINUTE),
    ))
    injector = FaultInjector(sim, network, RngStreams(0), plan, nodes=nodes, tracer=sim.tracer)
    injector.arm()
    sim.run(until=t0 + MINUTE)
    # an admin beats the injector to the power button
    nodes["enode01"].power_on()
    sim.run()
    assert nodes["enode01"].state is NodeState.UP
    # the injector's restart saw a live node and stood down
    assert injector.counters.get("node-restart:enode01", 0) == 0
