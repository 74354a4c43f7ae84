"""Shared test fixtures and factories.

``make_v1_disk`` builds the Eridani v1 on-disk layout (Figures 2–3):
sda1 Windows NTFS (installed), sda2 /boot ext3 (kernel + GRUB files),
sda5 swap, sda6 FAT control partition, sda7 Linux root — with GRUB in
the MBR redirecting to the FAT ``controlmenu.lst``.
"""

import pytest

from repro.boot.chain import GRUB_MENU_PATH, LINUX_ROOT_MARKER
from repro.boot.windowsboot import WINDOWS_BOOT_MARKER, WINDOWS_SYSTEM_MARKER
from repro.hardware.node import NodeHooks, NodeState
from repro.storage import Disk, FsType, PartitionKind
from repro.storage.mbr import BootCode

MENU_LST_FIG2 = """\
default=0
timeout=5
splashimage=(hd0,1)/grub/splash.xpm.gz
hiddenmenu

title changing to control file
root (hd0,5)
configfile /controlmenu.lst
"""

CONTROLMENU_FIG3 = """\
default 0
timeout=10
splashimage=(hd0,1)/grub/splash.xpm.gz

title CentOS-5.4_Oscar-5b2-linux
root (hd0,1)
kernel /vmlinuz-2.6.18-164.el5 ro root=/dev/sda7 enforcing=0
initrd /sc-initrd-2.6.18-164.el5.gz

title Win_Server_2K8_R2-windows
rootnoverify (hd0,0)
chainloader +1
"""


def install_windows_markers(fs):
    fs.write(WINDOWS_BOOT_MARKER, "bootmgr")
    fs.write(WINDOWS_SYSTEM_MARKER, "ntoskrnl")


def install_linux_markers(bootfs, rootfs):
    bootfs.write("/vmlinuz-2.6.18-164.el5", "kernel-image")
    bootfs.write("/sc-initrd-2.6.18-164.el5.gz", "initrd-image")
    bootfs.write("/grub/splash.xpm.gz", "splash")
    bootfs.write("/grub/stage2", "stage2")
    rootfs.write(LINUX_ROOT_MARKER, "/dev/sda7 / ext3 defaults 0 1")


def make_v1_disk(default_os: str = "linux") -> Disk:
    """A fully deployed v1 dual-boot disk."""
    disk = Disk(size_mb=250_000)
    win = disk.create_partition(150_000)
    winfs = win.format(FsType.NTFS, label="Node")
    install_windows_markers(winfs)
    disk.set_active(1)

    boot = disk.create_partition(100)
    bootfs = boot.format(FsType.EXT3, label="boot")
    disk.create_partition(99_000, PartitionKind.EXTENDED)
    disk.create_partition(512, PartitionKind.LOGICAL).format(FsType.SWAP)
    fat = disk.create_partition(100, PartitionKind.LOGICAL)
    fatfs = fat.format(FsType.FAT, label="DUALBOOT")
    root = disk.create_partition(98_000, PartitionKind.LOGICAL)
    rootfs = root.format(FsType.EXT3, label="root")
    install_linux_markers(bootfs, rootfs)

    bootfs.write(GRUB_MENU_PATH, MENU_LST_FIG2)
    control = CONTROLMENU_FIG3
    if default_os == "windows":
        control = control.replace("default 0", "default 1", 1)
    fatfs.write("/controlmenu.lst", control)
    fatfs.write("/controlmenu_to_linux.lst", CONTROLMENU_FIG3)
    fatfs.write(
        "/controlmenu_to_windows.lst",
        CONTROLMENU_FIG3.replace("default 0", "default 1", 1),
    )

    disk.install_mbr(BootCode(BootCode.GRUB, config_partition=2))
    return disk


@pytest.fixture()
def v1_disk():
    return make_v1_disk()


class PoweredStub:
    """A stand-in compute node for the health monitor: a name, a power
    state, and a hook table whose power-state observers every state flip
    fires with ``(node, old, new)``, as :class:`ComputeNode` does."""

    def __init__(self, name="n1", state=NodeState.UP):
        self.name = name
        self.hooks = NodeHooks()
        self._state = state

    @property
    def state(self):
        return self._state

    @state.setter
    def state(self, new):
        old, self._state = self._state, new
        if old is not new:
            for callback in self.hooks.power_state:
                callback(self, old, new)

