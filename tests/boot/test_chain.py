"""End-to-end boot-chain resolution: firmware -> loader -> OS."""

import pytest

from repro.errors import BootError
from repro.boot import BootEnvironment, Firmware, resolve_boot
from repro.boot.grub4dos import GRUB4DOS_ROM, default_menu_path
from repro.boot.pxelinux import PXELINUX_ROM
from repro.netsvc import DhcpServer, TftpServer
from repro.storage import Disk, Filesystem, FsType
from repro.storage.diskpart import DiskpartInterpreter, MODIFIED_DISKPART_TXT_V1
from repro.storage.mbr import BootCode
from tests.conftest import CONTROLMENU_FIG3, install_windows_markers, make_v1_disk

MAC = "00:1e:c9:3a:bb:01"


def pxe_env(default_menu=None, bootfile="/grldr"):
    fs = Filesystem(FsType.EXT3, label="headroot")
    fs.write("/tftpboot/grldr", GRUB4DOS_ROM)
    fs.write("/tftpboot/pxelinux.0", PXELINUX_ROM)
    tftp = TftpServer(fs)
    if default_menu is not None:
        tftp.put(default_menu_path(), default_menu)
    dhcp = DhcpServer(next_server="linhead", default_bootfile=bootfile)
    return BootEnvironment(dhcp=dhcp, tftp=tftp)


# -- v1: disk-first, GRUB in MBR -------------------------------------------


def test_v1_boots_linux_by_default(v1_disk):
    outcome = resolve_boot(v1_disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert outcome.os_name == "linux"
    assert outcome.via == "mbr-grub"
    assert outcome.root_partition == 7


def test_v1_boots_windows_after_flag_flip():
    disk = make_v1_disk(default_os="windows")
    outcome = resolve_boot(disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert outcome.os_name == "windows"
    assert outcome.root_partition == 1


def test_v1_windows_reinstall_bricks_linux_boot(v1_disk):
    """§IV.A: Windows reimaging rewrites the MBR and damages GRUB.

    After the Figure-10 diskpart run + Windows install the node boots
    Windows fine, but Linux is gone and GRUB is gone with the MBR."""
    DiskpartInterpreter(v1_disk).run(MODIFIED_DISKPART_TXT_V1)
    install_windows_markers(v1_disk.filesystem(1))
    v1_disk.install_mbr(BootCode(BootCode.WINDOWS))
    outcome = resolve_boot(v1_disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert outcome.os_name == "windows"
    assert outcome.via == "mbr-active"  # GRUB no longer in the chain


def test_bare_disk_does_not_boot():
    disk = Disk(size_mb=250_000)
    with pytest.raises(BootError, match="MBR has no boot code"):
        resolve_boot(disk, Firmware.disk_first(), MAC, BootEnvironment())


def test_windows_mbr_without_active_partition_hangs(v1_disk):
    v1_disk.install_mbr(BootCode(BootCode.WINDOWS))
    v1_disk.partition(1).active = False
    with pytest.raises(BootError, match="no active partition"):
        resolve_boot(v1_disk, Firmware.disk_first(), MAC, BootEnvironment())


def test_grub_mbr_with_deleted_boot_partition_hangs(v1_disk):
    v1_disk.filesystem(2).delete("/grub/menu.lst")
    with pytest.raises(BootError, match="stage2/menu unreadable"):
        resolve_boot(v1_disk, Firmware.disk_first(), MAC, BootEnvironment())


def test_linux_entry_without_installed_root_panics(v1_disk):
    v1_disk.filesystem(7).delete("/etc/fstab")
    with pytest.raises(BootError, match="kernel panic"):
        resolve_boot(v1_disk, Firmware.disk_first(), MAC, BootEnvironment())


# -- v2: PXE-first, GRUB4DOS flag ---------------------------------------------


def test_v2_pxe_boots_flagged_os(v1_disk):
    env = pxe_env(default_menu=CONTROLMENU_FIG3)
    outcome = resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)
    assert outcome.os_name == "linux"
    assert outcome.via == "pxe-grub4dos"


def test_v2_pxe_boots_windows_when_flag_is_windows(v1_disk):
    env = pxe_env(
        default_menu=CONTROLMENU_FIG3.replace("default 0", "default 1")
    )
    outcome = resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)
    assert outcome.os_name == "windows"


def test_v2_survives_mbr_damage(v1_disk):
    """The v2 design goal: after Windows clobbers the MBR, PXE boot still
    reaches either OS — 'the MBR information ... does not have to be
    fixed' (§IV.A)."""
    v1_disk.install_mbr(BootCode(BootCode.WINDOWS))  # GRUB destroyed
    env = pxe_env(default_menu=CONTROLMENU_FIG3)
    outcome = resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)
    assert outcome.os_name == "linux"


def test_pxe_falls_back_to_disk_without_dhcp(v1_disk):
    outcome = resolve_boot(
        v1_disk, Firmware.pxe_first(), MAC, BootEnvironment()
    )
    assert outcome.via == "mbr-grub"
    assert any("no DHCP" in t for t in outcome.trace)


def test_pxe_falls_back_when_tftp_down(v1_disk):
    env = pxe_env(default_menu=CONTROLMENU_FIG3)
    env.tftp.enabled = False
    outcome = resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)
    assert outcome.via == "mbr-grub"


def test_pxe_falls_back_without_bootfile_option(v1_disk):
    env = pxe_env(default_menu=CONTROLMENU_FIG3, bootfile=None)
    outcome = resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)
    assert outcome.via == "mbr-grub"


def test_pxelinux_rom_localboot_falls_through(v1_disk):
    env = pxe_env(bootfile="/pxelinux.0")
    env.tftp.put("/pxelinux.cfg/default", "DEFAULT l\nLABEL l\nLOCALBOOT 0\n")
    outcome = resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)
    assert outcome.via == "mbr-grub"  # PXELINUX quit PXE -> disk


def test_pxelinux_rom_installer_outcome(v1_disk):
    env = pxe_env(bootfile="/pxelinux.0")
    env.tftp.put(
        "/pxelinux.cfg/default",
        "DEFAULT i\nLABEL i\nKERNEL si/kernel\nAPPEND IMAGESERVER=linhead\n",
    )
    env.tftp.put("/si/kernel", "k")
    outcome = resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)
    assert outcome.os_name == "installer"
    assert "IMAGESERVER=linhead" in outcome.installer_args


def test_unknown_rom_contents_raise(v1_disk):
    env = pxe_env()
    env.tftp.put("/grldr", "garbage")
    with pytest.raises(BootError, match="unknown PXE ROM"):
        resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)


def test_chainload_to_unbootable_partition_fails(v1_disk):
    v1_disk.filesystem(1).delete("/bootmgr")
    disk_cfg = make_v1_disk(default_os="windows")
    env = pxe_env(
        default_menu=CONTROLMENU_FIG3.replace("default 0", "default 1")
    )
    with pytest.raises(BootError, match="not bootable"):
        resolve_boot(v1_disk, Firmware.pxe_first(), MAC, env)


def test_firmware_validation():
    import repro.boot.firmware as fw
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        fw.Firmware(boot_order=())
    with pytest.raises(ConfigurationError):
        fw.Firmware(boot_order=("floppy",))
    assert fw.Firmware.pxe_first().boot_order == ("pxe", "disk")


# -- menus are parsed once per text, never once per disk ------------------------


def test_renamed_controlmenu_is_seen_by_the_next_boot(v1_disk):
    """The v1 switch renames a staged menu over ``controlmenu.lst``; the
    next boot of the same disk must read the new text."""
    first = resolve_boot(v1_disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert first.os_name == "linux"
    v1_disk.filesystem(6).rename("/controlmenu_to_windows.lst", "/controlmenu.lst")
    second = resolve_boot(v1_disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert second.os_name == "windows"


def test_corrupt_menu_fails_every_boot(v1_disk):
    v1_disk.filesystem(2).write("/grub/menu.lst", "frobnicate on\n")
    for _ in range(2):
        with pytest.raises(BootError, match="unknown global directive"):
            resolve_boot(v1_disk, Firmware.disk_first(), MAC, BootEnvironment())
