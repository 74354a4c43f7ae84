"""dualboot-oscar v1: GRUB-in-MBR + FAT control partition (§III.B).

Mechanism recap:

* GRUB lives in the MBR; ``/boot/grub/menu.lst`` is the Figure-2 one-entry
  redirect whose ``configfile`` points at ``controlmenu.lst`` on a FAT
  partition both OSes can write;
* the FAT partition carries the live ``controlmenu.lst`` plus the two
  pre-staged menus ``controlmenu_to_{linux,windows}.lst``;
* switching = editing/replacing ``controlmenu.lst`` (Figure 4's job via
  ``bootcontrol.pl``, or the rename-based batch scripts) and rebooting;
* because control lives on each node's own disk, a cluster-wide flip
  requires touching every node — there is no head-side flag.
"""

from __future__ import annotations

from typing import Optional

from repro.boot.firmware import Firmware
from repro.boot.grubcfg import parse_grub_config
from repro.core.bootcontrol import switch_grub_default
from repro.core.controller import BootController, DualBootMenuSpec, make_dualboot_menu
from repro.core.switchjob import (
    STAGED_MENU,
    pbs_switch_script_v1,
    windows_switch_bat_v1,
)
from repro.errors import MiddlewareError
from repro.hardware.node import ComputeNode
from repro.oscar.packages import BOOTCONTROL_PL_TEXT
from repro.storage.filesystem import Filesystem
from repro.storage.partition import FsType

#: Figure 2: the redirect installed as /boot/grub/menu.lst.
def redirect_menu_lst(spec: DualBootMenuSpec, fat_partition: int) -> str:
    return (
        "default=0\n"
        "timeout=5\n"
        f"splashimage=(hd0,{spec.boot_partition - 1})/grub/splash.xpm.gz\n"
        "hiddenmenu\n"
        "\n"
        "title changing to control file\n"
        f"root (hd0,{fat_partition - 1})\n"
        "configfile /controlmenu.lst\n"
    )


class ControllerV1(BootController):
    """The initial dual-boot controller."""

    name = "dualboot-oscar v1 (FAT controlmenu)"

    def __init__(
        self,
        spec: DualBootMenuSpec,
        fat_partition: int = 6,
        switch_method: str = "rename",
    ) -> None:
        self.spec = spec
        self.fat_partition = fat_partition
        self.switch_method = switch_method

    # -- provisioning --------------------------------------------------------

    def prepare_cluster(self) -> None:
        """v1 keeps no head-node state — everything lives on the nodes."""

    def _fat_fs(self, node: ComputeNode) -> Filesystem:
        part = node.disk.partition(self.fat_partition)
        if part.fstype is not FsType.FAT or part.filesystem is None:
            raise MiddlewareError(
                f"{node.name}: /dev/sda{self.fat_partition} is not a usable "
                "FAT control partition"
            )
        return part.filesystem

    def prepare_node(self, node: ComputeNode, initial_os: str = "linux") -> None:
        node.firmware = Firmware.disk_first()
        fat = self._fat_fs(node)
        fat.write(
            "/controlmenu.lst", make_dualboot_menu(self.spec, initial_os)
        )
        for os_name, staged in STAGED_MENU.items():
            fat.write(f"/{staged}", make_dualboot_menu(self.spec, os_name))
        fat.write("/bootcontrol.pl", BOOTCONTROL_PL_TEXT)
        # ensure the boot partition carries the Figure-2 redirect
        bootfs = node.disk.filesystem(self.spec.boot_partition)
        bootfs.write(
            "/grub/menu.lst", redirect_menu_lst(self.spec, self.fat_partition)
        )

    # -- flag control -----------------------------------------------------------

    def set_target_os(self, target_os: str, node: Optional[ComputeNode] = None) -> None:
        """Edit a node's live control menu (out-of-band/admin path).

        v1 has no cluster-wide flag: with ``node=None`` this is a loop
        over every node — the very administration burden v2 removes.
        """
        nodes = [node] if node is not None else self._all_nodes()
        for target in nodes:
            fat = self._fat_fs(target)
            fat.write(
                "/controlmenu.lst",
                switch_grub_default(fat.read("/controlmenu.lst"), target_os),
            )

    def current_target(self, node: Optional[ComputeNode] = None) -> str:
        if node is None:
            raise MiddlewareError(
                "v1 has per-node control files; pass the node to inspect"
            )
        config = parse_grub_config(self._fat_fs(node).read("/controlmenu.lst"))
        title = config.default_entry().title
        return "windows" if title.endswith("-windows") else "linux"

    def _all_nodes(self):
        raise MiddlewareError(
            "cluster-wide set_target_os needs explicit nodes in v1 "
            "(use the middleware, which knows the cluster)"
        )

    # -- switch jobs -------------------------------------------------------------

    def linux_switch_script(self, target_os: str) -> str:
        return pbs_switch_script_v1(target_os, method=self.switch_method)

    def windows_switch_script(self, target_os: str) -> str:
        return windows_switch_bat_v1(target_os)
