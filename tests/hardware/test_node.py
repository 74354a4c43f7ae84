"""Compute-node power state machine tests."""

import pytest

from repro.errors import MiddlewareError
from repro.hardware import ComputeNode, NodeState, INTEL_Q8200
from repro.hardware.nic import Nic, mac_for_index
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


def test_mac_helper():
    assert mac_for_index(1) == "02:00:5e:00:00:01"
    assert mac_for_index(300) == "02:00:5e:00:01:2c"
    with pytest.raises(ValueError):
        mac_for_index(0)


def test_cold_boot_to_linux(sim):
    node = make_node(sim)
    node.power_on()
    sim.run()
    assert node.state is NodeState.UP
    assert node.os_name == "linux"
    rec = node.last_boot
    assert rec.cold and rec.via == "mbr-grub" and rec.error is None
    # cold boot: POST + GRUB + Linux boot, no shutdown phase
    assert 1 * MINUTE < rec.duration_s < 5 * MINUTE


def test_boot_failure_marks_failed(sim):
    node = make_node(sim)
    node.disk.mbr.wipe()
    node.power_on()
    sim.run()
    assert node.state is NodeState.FAILED
    assert node.failed
    assert "MBR has no boot code" in node.last_boot.error
    assert node.os_name is None


def test_power_on_twice_rejected(sim):
    node = make_node(sim)
    node.power_on()
    sim.run()
    with pytest.raises(MiddlewareError):
        node.power_on()


def test_power_on_after_failure_allowed(sim):
    node = make_node(sim)
    node.disk.mbr.wipe()
    node.power_on()
    sim.run()
    # admin fixes the disk, retries
    node.disk = make_v1_disk()
    node.power_on()
    sim.run()
    assert node.state is NodeState.UP


def test_reboot_cycles_os(sim):
    node = make_node(sim)
    node.power_on()
    sim.run()
    t_up = sim.now
    node.reboot()
    sim.run()
    assert node.state is NodeState.UP
    assert len(node.boot_records) == 2
    warm = node.boot_records[1]
    assert not warm.cold
    # warm reboot includes the shutdown phase -> longer than 1 minute
    assert warm.duration_s > 1 * MINUTE
    assert sim.now > t_up


def test_reboot_when_not_up_rejected(sim):
    node = make_node(sim)
    with pytest.raises(MiddlewareError):
        node.reboot()


def test_os_switch_via_disk_flag(sim):
    """Flip the FAT control file, reboot, come up under Windows."""
    node = make_node(sim)
    node.power_on()
    sim.run()
    assert node.os_name == "linux"
    fatfs = node.disk.filesystem(6)
    fatfs.rename("/controlmenu_to_windows.lst", "/controlmenu.lst")
    node.reboot()
    sim.run()
    assert node.os_name == "windows"
    assert node.boot_records[1].os_name == "windows"


def test_request_reboot_is_deferred_and_idempotent(sim):
    node = make_node(sim)
    node.power_on()
    sim.run()
    node.request_reboot(delay_s=5.0)
    node.request_reboot(delay_s=5.0)  # coalesced
    sim.run()
    assert node.state is NodeState.UP
    assert len(node.boot_records) == 2  # exactly one reboot happened


def test_request_reboot_ignored_when_down(sim):
    node = make_node(sim)
    node.request_reboot()
    sim.run()
    assert node.boot_records == []


def test_os_up_down_callbacks(sim):
    node = make_node(sim)
    events = []
    node.hooks.register(
        "os_up", lambda n, osi: events.append(("up", osi.kind, sim.now))
    )
    node.hooks.register(
        "os_down", lambda n, osi: events.append(("down", osi.kind, sim.now))
    )
    node.power_on()
    sim.run()
    node.reboot()
    sim.run()
    kinds = [(kind, what) for what, kind, _ in events]
    assert [w for w, _, _ in events] == ["up", "down", "up"]


def test_provisioners_run_before_service_start(sim):
    node = make_node(sim)
    order = []

    def provision(n, osi):
        order.append("provision")
        from repro.oslayer import ServiceDef

        osi.add_service(ServiceDef("svc", on_start=lambda o: order.append("start")))

    node.hooks.register("provisioners", provision)
    node.power_on()
    sim.run()
    assert order == ["provision", "start"]


def test_installer_boot_without_handler_fails(sim):
    from repro.boot.chain import BootEnvironment
    from repro.boot.firmware import Firmware
    from repro.boot.pxelinux import PXELINUX_ROM
    from repro.netsvc import DhcpServer, TftpServer
    from repro.storage import Filesystem, FsType

    fs = Filesystem(FsType.EXT3)
    fs.write("/tftpboot/pxelinux.0", PXELINUX_ROM)
    fs.write("/tftpboot/pxelinux.cfg/default", "DEFAULT i\nLABEL i\nKERNEL k\n")
    fs.write("/tftpboot/k", "kernel")
    tftp = TftpServer(fs)
    dhcp = DhcpServer(default_bootfile="/pxelinux.0")

    node = make_node(sim)
    node.env = BootEnvironment(dhcp=dhcp, tftp=tftp)
    node.firmware = Firmware.pxe_first()
    node.power_on()
    sim.run()
    assert node.failed
    assert "installer" in node.last_boot.error


def test_boot_timing_deterministic_per_seed():
    times = []
    for _ in range(2):
        sim = Simulator()
        node = make_node(sim, seed=42)
        node.power_on()
        sim.run()
        times.append(node.last_boot.duration_s)
    assert times[0] == times[1]
