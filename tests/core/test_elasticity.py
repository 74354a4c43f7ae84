"""Elasticity manager decision logic, one evaluation at a time.

The manager is constructed by hand over a deployed hybrid stack (with
``elastic.enabled`` off, so no background loop interferes) and
``evaluate()`` is called explicitly — each test drives exactly the
decision rounds it wants and inspects the counters, the cordons, the
rejoin ledger and the ``elastic.decision`` trace stream.
"""

from types import SimpleNamespace

import pytest

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.core.elasticity import ElasticityManager, ElasticityPolicy
from repro.errors import ConfigurationError
from repro.hardware.node import NodeState
from repro.health import HealthState, HeartbeatMonitor
from repro.sched import JobRequest
from repro.simkernel import MINUTE, Simulator
from repro.trace.events import ELASTIC_DECISION
from tests.conftest import PoweredStub


def build(num_nodes=4, **policy_kw):
    hybrid = build_hybrid_cluster(
        num_nodes=num_nodes, seed=1, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=10 * MINUTE),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    manager = ElasticityManager(
        hybrid.sim,
        hybrid.cluster,
        hybrid.pbs,
        hybrid.winhpc,
        policy=ElasticityPolicy(**policy_kw),
        orders=hybrid.daemons.orders,
        health=hybrid.health,
        linux_comm=hybrid.daemons.linux,
        controller=hybrid.controller,
    )
    return hybrid, manager


def node_by_name(hybrid, name):
    return next(n for n in hybrid.cluster.compute_nodes if n.name == name)


def decisions(hybrid, action):
    return [e for e in hybrid.tracer.events_of(ELASTIC_DECISION)
            if e.fields["action"] == action]


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        ElasticityPolicy(min_online=-1)
    with pytest.raises(ConfigurationError):
        ElasticityPolicy(hysteresis_cycles=0)
    with pytest.raises(ConfigurationError):
        ElasticityPolicy(idle_surplus=-1)
    with pytest.raises(ConfigurationError):
        ElasticityPolicy(max_actions_per_cycle=0)


def test_hysteresis_holds_the_first_surplus_evaluation():
    hybrid, manager = build(
        hysteresis_cycles=2, idle_surplus=0, min_online=1,
        max_actions_per_cycle=10,
    )
    manager.evaluate()
    assert manager.suspends == 0          # streak 1 < hysteresis 2
    manager.evaluate()
    assert manager.suspends == 3          # 4 idle, floor keeps one up
    hybrid.sim.run(until=hybrid.sim.now + 2 * MINUTE)

    # victims are the highest-named idle nodes; the floor survivor is 01
    assert node_by_name(hybrid, "enode01").state is NodeState.UP
    for name in ("enode02", "enode03", "enode04"):
        assert node_by_name(hybrid, name).state is NodeState.SUSPENDED


def test_min_online_floor_blocks_all_suspends():
    hybrid, manager = build(
        hysteresis_cycles=1, idle_surplus=0, min_online=4,
        max_actions_per_cycle=10,
    )
    for _ in range(5):
        manager.evaluate()
    assert manager.suspends == 0
    assert all(n.state is NodeState.UP for n in hybrid.cluster.compute_nodes)


def test_action_budget_caps_suspends_per_cycle():
    hybrid, manager = build(
        hysteresis_cycles=1, idle_surplus=0, min_online=0,
        max_actions_per_cycle=2,
    )
    manager.evaluate()
    assert manager.suspends == 2


def test_victims_are_cordoned_before_shutdown():
    hybrid, manager = build(
        hysteresis_cycles=1, idle_surplus=0, min_online=1,
        max_actions_per_cycle=10,
    )
    manager.evaluate()
    # inspected before the suspend processes run: the PBS record is
    # already offline, so nothing can be placed during the shutdown
    for name in ("enode02", "enode03", "enode04"):
        record = hybrid.pbs.nodes[hybrid.pbs.fqdn(name)]
        assert record.state.value == "offline"
    assert len(decisions(hybrid, "suspend")) == 3


def test_pressure_resumes_lowest_named_first_with_rejoin_expected():
    hybrid, manager = build(
        hysteresis_cycles=1, idle_surplus=0, min_online=1,
        max_actions_per_cycle=1,
    )
    manager.evaluate()                    # parks enode04
    hybrid.sim.run(until=hybrid.sim.now + 2 * MINUTE)
    manager.evaluate()                    # parks enode03
    hybrid.sim.run(until=hybrid.sim.now + 2 * MINUTE)
    assert manager.suspends == 2

    # fill both remaining UP nodes, then one more job to back the queue up
    for index in range(3):
        hybrid.submit("linux", JobRequest(
            name=f"pressure-{index}", nodes=1, ppn=4, runtime_s=600.0))
    manager.evaluate()
    assert manager.resumes == 1
    resumed = decisions(hybrid, "resume")
    assert [e.node for e in resumed] == ["enode03"]   # lowest name first
    assert "queued" in resumed[0].cause
    # the ledger was told: this join is a wake-up, not a switch landing
    assert "enode03" in hybrid.daemons.orders._expected_rejoins

    hybrid.sim.run(until=hybrid.sim.now + 2 * MINUTE)
    assert node_by_name(hybrid, "enode03").state is NodeState.UP
    # queue pressure also reset the surplus streak: no fresh suspends
    assert manager.suspends == 2


def test_provision_only_when_boots_land_on_the_pressured_side():
    hybrid, manager = build(
        hysteresis_cycles=1, idle_surplus=0, min_online=1,
        max_actions_per_cycle=4,
    )
    node_by_name(hybrid, "enode04").deprovision()
    hybrid.submit("linux", JobRequest(
        name="pressure", nodes=4, ppn=4, runtime_s=600.0))

    # boot flag absent: waking cold capacity would land on the wrong OS
    manager.controller = SimpleNamespace(
        has_cluster_flag=False, current_target=lambda: "linux"
    )
    manager.evaluate()
    assert manager.provisions == 0

    manager.controller = SimpleNamespace(
        has_cluster_flag=True, current_target=lambda: "windows"
    )
    manager.evaluate()
    assert manager.provisions == 0        # flag points at the other side

    manager.controller = SimpleNamespace(
        has_cluster_flag=True, current_target=lambda: "linux"
    )
    manager.evaluate()
    assert manager.provisions == 1
    assert [e.node for e in decisions(hybrid, "provision")] == ["enode04"]
    assert "enode04" in hybrid.daemons.orders._expected_rejoins


def test_stale_windows_report_holds_that_side():
    hybrid, manager = build(hysteresis_cycles=1, idle_surplus=0)
    comm = hybrid.daemons.linux
    assert comm.staleness_cap_s is not None

    comm.last_report_at = None            # no report ever received
    manager.evaluate()
    assert manager.stale_holds == 1

    comm.last_report_at = hybrid.sim.now - (comm.staleness_cap_s + 1.0)
    manager.evaluate()
    assert manager.stale_holds == 2

    holds = decisions(hybrid, "hold")
    assert len(holds) == 2
    assert all(e.fields["side"] == "windows" for e in holds)
    assert all(e.cause == "stale windows report" for e in holds)

    comm.last_report_at = hybrid.sim.now  # fresh again: no further holds
    manager.evaluate()
    assert manager.stale_holds == 2


def test_unhealthy_nodes_are_not_suspend_candidates():
    hybrid, manager = build(
        hysteresis_cycles=1, idle_surplus=0, min_online=0,
        max_actions_per_cycle=10,
    )
    # a real monitor whose view of the would-be first victim has missed
    # two beats while the machine itself still reads UP: SUSPECT
    clock = Simulator()
    monitor = HeartbeatMonitor(
        clock, beat_s=60.0, suspect_misses=2, fence_misses=5
    )
    beacon = PoweredStub("enode04", NodeState.UP)
    monitor.watch(beacon)
    monitor.agent_up(beacon.name)
    monitor.start()
    beacon.state = NodeState.OFF
    clock.run(until=2 * 60.0 + 1)
    assert monitor.health("enode04").state is HealthState.SUSPECT

    manager.health = monitor
    manager.evaluate()
    assert node_by_name(hybrid, "enode04").state is NodeState.UP
    assert "enode04" not in [e.node for e in decisions(hybrid, "suspend")]
