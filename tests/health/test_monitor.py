"""Heartbeat monitor: thresholds, planned-downtime immunity, recovery.

The unit layer drives the monitor against stub nodes (a name, a power
state and the observers a state flip fires); the integration test at the bottom
runs the full hybrid stack through a crash -> fence -> requeue -> rejoin
cycle.
"""

import pytest

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.errors import ConfigurationError
from repro.hardware.node import NodeState
from repro.health import HealthState, HeartbeatMonitor
from repro.pbs.job import JobState
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE, Simulator
from tests.conftest import PoweredStub


def stub_node(name="n1", state=NodeState.UP):
    return PoweredStub(name, state)


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def monitor(sim):
    return HeartbeatMonitor(sim, beat_s=60.0, suspect_misses=2, fence_misses=5)


def test_threshold_validation(sim):
    with pytest.raises(ConfigurationError):
        HeartbeatMonitor(sim, beat_s=0.0)
    with pytest.raises(ConfigurationError):
        HeartbeatMonitor(sim, suspect_misses=0)
    with pytest.raises(ConfigurationError):
        HeartbeatMonitor(sim, suspect_misses=5, fence_misses=5)


def test_start_twice_rejected(sim, monitor):
    monitor.start()
    with pytest.raises(ConfigurationError):
        monitor.start()


def test_up_node_is_never_suspected(sim, monitor):
    node = stub_node()
    monitor.watch(node)
    monitor.agent_up(node.name)
    monitor.start()
    sim.run(until=20 * MINUTE)
    health = monitor.health(node.name)
    assert health.state is HealthState.HEALTHY
    assert health.misses == 0
    assert monitor.fences == monitor.suspects == 0


def test_unwatched_beats_are_not_expected(sim, monitor):
    # registered but no agent ever came up (node still booting): dark is fine
    node = stub_node(state=NodeState.OFF)
    monitor.watch(node)
    monitor.start()
    sim.run(until=20 * MINUTE)
    assert monitor.health(node.name).state is HealthState.HEALTHY
    assert monitor.fences == 0


def test_silent_death_escalates_suspect_then_fenced(sim, monitor):
    node = stub_node()
    monitor.watch(node)
    monitor.agent_up(node.name)
    fenced = []
    monitor.on_fence.append(fenced.append)
    monitor.start()

    node.state = NodeState.OFF  # silent crash: no agent_down fires
    sim.run(until=2 * 60.0 + 1)
    assert monitor.health(node.name).state is HealthState.SUSPECT
    assert monitor.suspects == 1 and monitor.fences == 0

    sim.run(until=5 * 60.0 + 1)
    health = monitor.health(node.name)
    assert health.state is HealthState.FENCED
    assert health.fence_count == 1
    assert monitor.fences == 1
    assert fenced == [node.name]
    # staying dark does not fence again
    sim.run(until=30 * MINUTE)
    assert monitor.fences == 1


def test_orderly_stop_is_planned_downtime(sim, monitor):
    node = stub_node()
    monitor.watch(node)
    monitor.agent_up(node.name)
    monitor.start()
    sim.run(until=3 * 60.0)
    # orderly shutdown (reboot / OS switch): the service hook deregisters
    monitor.agent_down(node.name)
    node.state = NodeState.BOOTING
    sim.run(until=HOUR)
    assert monitor.health(node.name).state is HealthState.HEALTHY
    assert monitor.fences == 0


def test_suspect_that_beats_again_recovers_silently(sim, monitor):
    node = stub_node()
    monitor.watch(node)
    monitor.agent_up(node.name)
    monitor.start()
    node.state = NodeState.BOOTING
    sim.run(until=2 * 60.0 + 1)
    assert monitor.health(node.name).state is HealthState.SUSPECT
    node.state = NodeState.UP
    sim.run(until=4 * 60.0)
    health = monitor.health(node.name)
    assert health.state is HealthState.HEALTHY and health.misses == 0
    assert monitor.recoveries == 0  # only fences count as recoveries


def test_fenced_node_recovers_on_agent_return(sim, monitor):
    node = stub_node()
    monitor.watch(node)
    monitor.agent_up(node.name)
    monitor.start()
    node.state = NodeState.OFF
    sim.run(until=6 * 60.0)
    assert monitor.health(node.name).state is HealthState.FENCED

    node.state = NodeState.UP
    monitor.agent_up(node.name)  # the reboot re-registers the agent
    health = monitor.health(node.name)
    assert health.state is HealthState.HEALTHY
    assert health.recovered_at == sim.now
    assert monitor.recoveries == 1
    recovered = sim.tracer.events_of("health.recovered")
    assert [e.node for e in recovered] == [node.name]


def test_watch_is_idempotent(sim, monitor):
    node = stub_node()
    monitor.watch(node)
    monitor.agent_up(node.name)
    monitor.watch(node)  # must not reset the health record
    assert monitor.health(node.name).expected


# -- full-stack integration ---------------------------------------------------


def test_crash_fence_requeue_rejoin_end_to_end():
    """A hard crash mid-job: fenced in ~5 min, the job is requeued, the
    repowered node rejoins and the job completes on its second run."""
    hybrid = build_hybrid_cluster(
        num_nodes=2, seed=7, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=5 * MINUTE),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    sim = hybrid.sim
    t0 = sim.now
    jobid = hybrid.submit("linux", JobRequest(
        name="victim", nodes=2, ppn=4, runtime_s=30 * MINUTE
    ))
    job = hybrid.pbs.jobs[jobid]
    assert job.state is JobState.RUNNING

    node = hybrid.cluster.compute_nodes[0]
    sim.run(until=t0 + MINUTE)
    assert node.crash()
    assert node.state is NodeState.OFF

    sim.run(until=t0 + 10 * MINUTE)
    health = hybrid.health.health(node.name)
    assert health.state is HealthState.FENCED
    # the job needed both nodes, so the fence requeued it
    assert job.state is JobState.QUEUED
    assert job.restarts == 1
    assert hybrid.pbs.requeues == 1

    node.power_on()
    sim.run(until=t0 + 2 * HOUR)
    assert health.state is HealthState.HEALTHY
    assert hybrid.health.recoveries == 1
    assert job.state is JobState.COMPLETED and job.exit_status == 0
