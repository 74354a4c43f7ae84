"""dualboot-oscar v2: PXE + GRUB4DOS flag control (§IV.A).

Mechanism recap:

* every node PXE-boots (BIOS order: PXE first) the GRUB4DOS ROM served
  from the Linux head node's ``/tftpboot``;
* GRUB4DOS reads its menu from ``/tftpboot/menu.lst/`` — per-MAC files in
  the initial design (Figure 12), a single shared ``default`` flag in the
  final one (Figure 13: "All the rebooting nodes will be led to the same
  operating system, because the whole dual-boot cluster will only need
  one system at one time");
* switching = rewriting the flag **on the head node** and submitting a
  plain reboot job — no per-node file edits, no MBR dependency.
"""

from __future__ import annotations

from typing import Optional

from repro.boot.firmware import Firmware
from repro.boot.grub4dos import (
    GRUB4DOS_ROM,
    default_menu_path,
    menu_path_for,
)
from repro.boot.grubcfg import parse_grub_config
from repro.core.bootcontrol import switch_grub_default
from repro.core.controller import BootController, DualBootMenuSpec, make_dualboot_menu
from repro.core.switchjob import (
    PBS_USER,
    pbs_switch_script_v2,
    windows_switch_bat_v2,
)
from repro.errors import MiddlewareError
from repro.hardware.node import ComputeNode
from repro.netsvc.dhcp import DhcpServer
from repro.netsvc.tftp import TftpServer

#: TFTP path of the GRUB4DOS ROM.
GRLDR_PATH = "/grldr"

#: Paths of the per-MAC "flick my toggle" client (registered as a binary
#: on each node's OS by the middleware; the Figure-12 flow).
FLICK_BINARY_LINUX = "/usr/sbin/dualboot-flick"
FLICK_BINARY_WINDOWS = r"C:\dualboot\flick.exe"


class ControllerV2(BootController):
    """The improved PXE-flag controller."""

    name = "dualboot-oscar v2 (PXE/GRUB4DOS flag)"

    def __init__(
        self,
        spec: DualBootMenuSpec,
        tftp: TftpServer,
        dhcp: DhcpServer,
        per_mac_menus: bool = False,
    ) -> None:
        self.spec = spec
        self.tftp = tftp
        self.dhcp = dhcp
        self.per_mac_menus = per_mac_menus

    # -- provisioning ----------------------------------------------------------

    def prepare_cluster(self) -> None:
        """Serve the ROM, point DHCP at it, write the initial (Linux) flag."""
        self.tftp.put(GRLDR_PATH, GRUB4DOS_ROM)
        self.dhcp.default_bootfile = GRLDR_PATH
        self.tftp.put(default_menu_path(), make_dualboot_menu(self.spec))

    def prepare_node(self, node: ComputeNode, initial_os: str = "linux") -> None:
        node.firmware = Firmware.pxe_first()
        if self.per_mac_menus:
            self.tftp.put(
                menu_path_for(node.mac),
                make_dualboot_menu(self.spec, initial_os),
            )

    # -- flag control -----------------------------------------------------------

    def _flag_path(self, node: Optional[ComputeNode]) -> str:
        if self.per_mac_menus:
            if node is None:
                raise MiddlewareError(
                    "per-MAC menu mode needs a node for flag operations"
                )
            return menu_path_for(node.mac)
        return default_menu_path()

    def set_target_os(self, target_os: str, node: Optional[ComputeNode] = None) -> None:
        path = self._flag_path(node)
        if self.tftp.exists(path):
            text = switch_grub_default(self.tftp.fetch(path), target_os)
        else:
            text = make_dualboot_menu(self.spec, target_os)
        self.tftp.put(path, text)

    def current_target(self, node: Optional[ComputeNode] = None) -> str:
        path = self._flag_path(node)
        config = parse_grub_config(self.tftp.fetch(path))
        title = config.default_entry().title
        return "windows" if title.endswith("-windows") else "linux"

    @property
    def has_cluster_flag(self) -> bool:
        return not self.per_mac_menus

    # -- switch jobs -------------------------------------------------------------

    def linux_switch_script(self, target_os: str) -> str:
        if self.per_mac_menus:
            # Figure-12 flow: the job flicks ITS node's menu on the head
            # (the head daemon cannot know which machine the scheduler
            # will book), then reboots
            return (
                "#!/bin/bash\n"
                "#PBS -l nodes=1:ppn=4\n"
                "#PBS -N release_1_node\n"
                "#PBS -q default\n"
                "#PBS -j oe\n"
                "#PBS -o reboot_log.out\n"
                "#PBS -r n\n"
                f"echo \\$PBS_JOBID >>/home/{PBS_USER}/reboot_log/"
                "rebootjob.log\n"
                f"sudo {FLICK_BINARY_LINUX} {target_os} "
                "#send ID + flick this node's toggle on the head\n"
                "sudo reboot\n"
                "sleep 10\n"
            )
        del target_os  # the single flag, not the script, carries the target
        return pbs_switch_script_v2()

    def windows_switch_script(self, target_os: str) -> str:
        if self.per_mac_menus:
            return (
                "@echo off\n"
                "rem dualboot-oscar v2 (per-MAC) OS switch\n"
                f"{FLICK_BINARY_WINDOWS} {target_os}\n"
                "shutdown /r /t 0\n"
                "sleep 10\n"
            )
        del target_os
        return windows_switch_bat_v2()
