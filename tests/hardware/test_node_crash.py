"""Hard node death: ``ComputeNode.crash()`` semantics.

The defining property: a crash is *silent*.  Unlike ``reboot()``/orderly
shutdown, no service ``on_stop`` hook runs — the schedulers' agents die
without deregistering, which is exactly what the heartbeat monitor
exists to notice.
"""

import pytest

from repro.hardware import INTEL_Q8200, ComputeNode, NodeState
from repro.hardware.nic import Nic, mac_for_index
from repro.oslayer.base import ServiceDef
from repro.simkernel import MINUTE, Simulator
from repro.simkernel.rng import RngStreams
from tests.conftest import make_v1_disk


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


@pytest.fixture()
def sim():
    return Simulator()


def test_crash_of_up_node_is_silent(sim):
    node = make_node(sim)
    node.power_on()
    sim.run()
    os_instance = node.current_os
    stops = []
    os_instance.add_service(ServiceDef(
        "agent", on_start=lambda _os: None, on_stop=stops.append,
    ))
    os_down = []
    node.hooks.register("os_down", lambda n, o: os_down.append(o.kind))
    crashed = []
    node.hooks.register("crash", lambda n: crashed.append(n.name))

    assert node.crash() is True
    assert node.state is NodeState.OFF
    assert node.current_os is None
    # the OS object is dead but its stop hooks never ran — silent death
    assert os_instance.running is False
    assert stops == []
    assert os_down == ["linux"]
    assert crashed == ["enode01"]


def test_crash_while_off_is_a_noop(sim):
    node = make_node(sim)
    assert node.crash() is False
    assert node.state is NodeState.OFF


def test_crash_mid_boot_stamps_the_boot_record(sim):
    node = make_node(sim)
    node.power_on()
    sim.run(until=30.0)  # still in POST/GRUB
    assert node.state is NodeState.BOOTING
    assert node.crash(cause="psu blew") is True
    assert node.state is NodeState.OFF
    record = node.boot_records[-1]
    assert record.finished_at == 30.0
    assert record.error == "psu blew"
    # the killed boot process must not resurrect the node later
    sim.run()
    assert node.state is NodeState.OFF


def test_crashed_node_can_be_repowered(sim):
    node = make_node(sim)
    node.power_on()
    sim.run()
    node.crash()
    node.power_on()
    sim.run()
    assert node.state is NodeState.UP
    assert node.os_name == "linux"
    assert 1 * MINUTE < node.last_boot.duration_s < 5 * MINUTE


def test_crash_of_failed_node_is_a_noop(sim):
    node = make_node(sim)
    node.disk.mbr.wipe()
    node.power_on()
    sim.run()
    assert node.state is NodeState.FAILED
    assert node.crash() is False
    assert node.state is NodeState.FAILED
