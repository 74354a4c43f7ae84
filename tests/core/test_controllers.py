"""Controller v1/v2 tests: provisioning, flag control, boot effects."""

import pytest

from repro.boot import resolve_boot
from repro.boot.chain import BootEnvironment
from repro.boot.grub4dos import GRUB4DOS_ROM, menu_path_for
from repro.core.controller import DualBootMenuSpec, make_dualboot_menu
from repro.core.controller_v1 import ControllerV1, redirect_menu_lst
from repro.core.controller_v2 import ControllerV2
from repro.errors import MiddlewareError
from repro.hardware import ComputeNode, INTEL_Q8200
from repro.hardware.nic import Nic, mac_for_index
from repro.netsvc import DhcpServer, TftpServer
from repro.simkernel import Simulator
from repro.simkernel.rng import RngStreams
from repro.storage import Filesystem, FsType
from tests.conftest import make_v1_disk

V1_SPEC = DualBootMenuSpec(boot_partition=2, root_partition=7)
V2_SPEC = DualBootMenuSpec(boot_partition=2, root_partition=6)


def make_node(sim, disk=None):
    node = ComputeNode(
        sim=sim, name="enode01", spec=INTEL_Q8200,
        nic=Nic(mac_for_index(1)), rng=RngStreams(1),
    )
    node.disk = disk if disk is not None else make_v1_disk()
    return node


def test_make_dualboot_menu_matches_figure3_structure():
    text = make_dualboot_menu(V1_SPEC, "linux")
    assert "default 0" in text
    assert "root (hd0,1)" in text
    assert "root=/dev/sda7" in text
    assert "rootnoverify (hd0,0)" in text
    assert "chainloader +1" in text
    windows = make_dualboot_menu(V1_SPEC, "windows")
    assert "default 1" in windows


def test_redirect_menu_matches_figure2_structure():
    text = redirect_menu_lst(V1_SPEC, fat_partition=6)
    assert "default=0" in text
    assert "hiddenmenu" in text
    assert "root (hd0,5)" in text
    assert "configfile /controlmenu.lst" in text


# -- v1 ----------------------------------------------------------------------


def test_v1_prepare_node_and_boot_flip():
    sim = Simulator()
    node = make_node(sim)
    controller = ControllerV1(V1_SPEC)
    controller.prepare_node(node, initial_os="linux")
    assert node.firmware.boot_order == ("disk",)
    assert controller.current_target(node) == "linux"

    outcome = resolve_boot(node.disk, node.firmware, node.mac, BootEnvironment())
    assert outcome.os_name == "linux"

    controller.set_target_os("windows", node)
    assert controller.current_target(node) == "windows"
    outcome = resolve_boot(node.disk, node.firmware, node.mac, BootEnvironment())
    assert outcome.os_name == "windows"


def test_v1_prepare_writes_staged_menus_and_bootcontrol():
    sim = Simulator()
    node = make_node(sim)
    ControllerV1(V1_SPEC).prepare_node(node)
    fat = node.disk.filesystem(6)
    assert fat.isfile("/controlmenu.lst")
    assert fat.isfile("/controlmenu_to_linux.lst")
    assert fat.isfile("/controlmenu_to_windows.lst")
    assert fat.isfile("/bootcontrol.pl")


def test_v1_requires_fat_partition():
    sim = Simulator()
    from repro.storage import Disk

    disk = Disk(size_mb=250_000)
    disk.create_partition(1000).format(FsType.EXT3)
    node = make_node(sim, disk=disk)
    with pytest.raises(MiddlewareError):
        ControllerV1(V1_SPEC, fat_partition=1).prepare_node(node)


def test_v1_cluster_wide_flag_unsupported():
    controller = ControllerV1(V1_SPEC)
    with pytest.raises(MiddlewareError):
        controller.set_target_os("windows")
    with pytest.raises(MiddlewareError):
        controller.current_target()


def test_v1_switch_scripts_carry_target():
    controller = ControllerV1(V1_SPEC, switch_method="bootcontrol")
    assert "controlmenu.lst windows" in controller.linux_switch_script("windows")
    assert "controlmenu_to_linux.lst controlmenu.lst" in (
        controller.windows_switch_script("linux")
    )


# -- v2 -------------------------------------------------------------------------


def v2_setup():
    sim = Simulator()
    head_fs = Filesystem(FsType.EXT3, label="headroot")
    tftp = TftpServer(head_fs)
    dhcp = DhcpServer(next_server="eridani")
    controller = ControllerV2(V2_SPEC, tftp=tftp, dhcp=dhcp)
    return sim, tftp, dhcp, controller


def test_v2_prepare_cluster_serves_rom_and_flag():
    sim, tftp, dhcp, controller = v2_setup()
    controller.prepare_cluster()
    assert tftp.fetch("/grldr") == GRUB4DOS_ROM
    assert dhcp.default_bootfile == "/grldr"
    assert controller.current_target() == "linux"


def test_v2_flag_flip_changes_boot_outcome():
    sim = Simulator()
    head_fs = Filesystem(FsType.EXT3, label="headroot")
    tftp = TftpServer(head_fs)
    dhcp = DhcpServer(next_server="eridani")
    # the test disk uses the v1 geometry (root on sda7)
    controller = ControllerV2(V1_SPEC, tftp=tftp, dhcp=dhcp)
    controller.prepare_cluster()
    disk = make_v1_disk()
    node = make_node(sim, disk=disk)
    controller.prepare_node(node)
    assert node.firmware.boot_order == ("pxe", "disk")

    env = BootEnvironment(dhcp=dhcp, tftp=tftp)
    outcome = resolve_boot(disk, node.firmware, node.mac, env)
    assert (outcome.os_name, outcome.via) == ("linux", "pxe-grub4dos")

    controller.set_target_os("windows")
    dhcp.release(node.mac)
    outcome = resolve_boot(disk, node.firmware, node.mac, env)
    assert outcome.os_name == "windows"


def test_v2_single_flag_is_cluster_wide():
    sim, tftp, dhcp, controller = v2_setup()
    controller.prepare_cluster()
    controller.set_target_os("windows")
    # no per-node state: the default menu is the only control file
    assert controller.current_target() == "windows"
    assert not tftp.exists(menu_path_for("02:00:5e:00:00:01"))


def test_v2_per_mac_mode_writes_node_menus():
    sim, tftp, dhcp, _ = v2_setup()
    controller = ControllerV2(V2_SPEC, tftp=tftp, dhcp=dhcp, per_mac_menus=True)
    controller.prepare_cluster()
    node = make_node(sim)
    controller.prepare_node(node, initial_os="windows")
    assert tftp.exists(menu_path_for(node.mac))
    assert controller.current_target(node) == "windows"
    controller.set_target_os("linux", node)
    assert controller.current_target(node) == "linux"
    with pytest.raises(MiddlewareError):
        controller.set_target_os("linux")  # needs a node in per-MAC mode


def test_v2_switch_scripts_are_target_free():
    _, _, _, controller = v2_setup()
    assert "bootcontrol" not in controller.linux_switch_script("windows")
    assert "ren" not in controller.windows_switch_script("linux")
