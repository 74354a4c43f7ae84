"""The cluster-wide hook table: one registration per component, not per node.

Every node of a cluster shares ``cluster.hooks``; each component (the
middleware, the heartbeat monitor, the energy meter, the recorder, the
OSCAR wizard's ``pbs_mom`` and the Windows deploy tool's node manager)
registers its bound method there once, however many nodes it attaches.
"""

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.hardware import ComputeNode, INTEL_Q8200
from repro.hardware.cluster import build_cluster
from repro.hardware.nic import Nic, mac_for_index
from repro.hardware.node import NodeHooks, NodeState
from repro.health import HealthState, HeartbeatMonitor
from repro.simkernel import MINUTE, Simulator
from repro.simkernel.rng import RngStreams

KINDS = NodeHooks.__slots__


def deployed(num_nodes):
    hybrid = build_hybrid_cluster(
        num_nodes=num_nodes, seed=0, version=2,
        config=MiddlewareConfig(version=2, initial_windows_nodes=1),
    )
    hybrid.deploy()
    return hybrid


def lengths(hooks):
    return {kind: len(getattr(hooks, kind)) for kind in KINDS}


def test_registration_does_not_grow_with_the_node_count():
    small, large = deployed(2), deployed(8)
    assert lengths(small.cluster.hooks) == lengths(large.cluster.hooks)
    # node manager, pbs_mom, dualboot; health, energy
    assert lengths(large.cluster.hooks) == {
        "provisioners": 3, "os_up": 1, "os_down": 1, "crash": 1,
        "power_state": 2,
    }


def test_every_node_shares_the_cluster_table():
    hybrid = deployed(4)
    assert all(
        node.hooks is hybrid.cluster.hooks
        for node in hybrid.cluster.compute_nodes
    )
    # the lists stay off the node itself
    node = hybrid.cluster.compute_nodes[0]
    assert not [v for v in vars(node).values() if isinstance(v, list)
                and v and callable(v[0])]


def test_a_second_cluster_keeps_its_own_table():
    first, second = deployed(2), deployed(2)
    assert first.cluster.hooks is not second.cluster.hooks
    owners = {id(component) for component in (
        second, second.health, second.energy, second.recorder,
        second.wizard, second.deploy_tool,
    )}
    for kind in KINDS:
        for callback in getattr(first.cluster.hooks, kind):
            assert id(getattr(callback, "__self__", None)) not in owners
    energy_before = {
        name: account.state
        for name, account in second.energy.accounts.items()
    }
    first.wait_for_nodes()
    first.cluster.compute_nodes[0].crash()
    # nothing of the second system saw the first one's boots or crash
    assert second.recorder.intervals == []
    assert {
        name: account.state
        for name, account in second.energy.accounts.items()
    } == energy_before
    assert second.pbs.online_node_count() == 0
    assert second.winhpc.online_node_count() == 0


def test_register_is_idempotent_for_an_equal_callback():
    hooks = NodeHooks()
    monitor = HeartbeatMonitor(Simulator())
    hooks.register("power_state", monitor._on_power_state)
    hooks.register("power_state", monitor._on_power_state)
    assert hooks.power_state == [monitor._on_power_state]
    hooks.register("crash", lambda node: None)
    hooks.register("crash", lambda node: None)
    assert len(hooks.crash) == 2


def test_a_node_built_alone_gets_its_own_table():
    sim = Simulator()
    nodes = [
        ComputeNode(
            sim=sim, name=f"solo{i}", spec=INTEL_Q8200,
            nic=Nic(mac_for_index(i)), rng=RngStreams(i),
        )
        for i in (1, 2)
    ]
    assert nodes[0].hooks is not nodes[1].hooks


def test_monitor_ignores_nodes_it_does_not_watch():
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=4)
    watched, other = cluster.compute_nodes[0], cluster.compute_nodes[1]
    monitor = HeartbeatMonitor(
        sim, beat_s=60.0, suspect_misses=2, fence_misses=30
    )
    monitor.watch(watched)
    # beats are expected from the watched node, which stays dark, so
    # every poll that runs counts one miss
    monitor.agent_up(watched.name)
    monitor.start()
    # the unwatched node shares the hook table: a blank disk fails its
    # boot, then the admin cuts power
    other.power_on()
    sim.run(until=10 * MINUTE)
    assert other.state is NodeState.FAILED
    other.power_off()
    sim.run(until=20 * MINUTE)
    assert monitor.health(watched.name).misses == 20
    assert list(monitor.unhealthy) == [watched.name]
