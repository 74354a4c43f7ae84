"""The full boot chain: BIOS → (PXE | MBR) → loader → OS.

:func:`resolve_boot` is the single entry point the simulated power
circuitry calls on every node start.  It walks the firmware boot order and
returns a :class:`BootOutcome` saying which operating system (or network
installer) comes up — or raises :class:`~repro.errors.BootError` when every
device fails, which is exactly the "node is bricked until an admin
intervenes" condition that experiment E4 counts against v1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import BootError, NetworkError
from repro.boot.firmware import Firmware
from repro.boot.grub import BootTarget, GrubExecutor
from repro.boot.grub4dos import GRUB4DOS_ROM, Grub4DosPxe
from repro.boot.pxelinux import PXELINUX_ROM, Pxelinux
from repro.boot.windowsboot import boot_active_partition, vbr_bootable
from repro.netsvc.dhcp import DhcpServer
from repro.netsvc.tftp import TftpServer
from repro.storage.disk import Disk
from repro.storage.filesystem import Filesystem

#: Marker of an installed Linux root filesystem (written by the OS layer).
LINUX_ROOT_MARKER = "/etc/fstab"

#: Path (on the boot partition) of GRUB's stage2 + config when GRUB is
#: installed into the MBR; GRUB dies if it cannot load its menu from here.
GRUB_MENU_PATH = "/grub/menu.lst"


@dataclass
class BootEnvironment:
    """Network services visible from a booting node (may be absent)."""

    dhcp: Optional[DhcpServer] = None
    tftp: Optional[TftpServer] = None
    #: fault hook, called with the booting node's MAC before the firmware
    #: walk; a non-``None`` return is a hang reason (the node freezes at
    #: POST — the injector's hang-at-boot fault)
    hang_hook: Optional[Callable[[str], Optional[str]]] = None


@dataclass
class BootOutcome:
    """What came up after power-on.

    ``os_name`` is ``"linux"``, ``"windows"`` or ``"installer"`` (a network
    deployment kernel, carrying its ``installer_args``).
    """

    os_name: str
    via: str
    root_partition: Optional[int] = None
    installer_args: str = ""
    trace: List[str] = field(default_factory=list)


def resolve_boot(
    disk: Disk,
    firmware: Firmware,
    mac: str,
    env: BootEnvironment,
) -> BootOutcome:
    """Walk the firmware boot order and resolve what boots.

    PXE failures (no DHCP lease, no bootfile option, TFTP down) fall
    through to the next boot device, as real BIOSes do.  A *loader* that
    starts but cannot finish (GRUB with a broken config, MBR with no
    bootable active partition) raises — firmware never regains control
    once a loader has the CPU.
    """
    trace: List[str] = []
    if env.hang_hook is not None:
        reason = env.hang_hook(mac)
        if reason is not None:
            raise BootError(f"hang at boot: {reason}")
    for device in firmware.boot_order:
        if device == "pxe":
            outcome = _try_pxe(disk, mac, env, trace)
            if outcome is not None:
                return outcome
        elif device == "disk":
            return _boot_disk(disk, trace)
    raise BootError(f"no bootable device (order={firmware.boot_order}): {trace}")


# -- PXE path -------------------------------------------------------------


def _try_pxe(
    disk: Disk, mac: str, env: BootEnvironment, trace: List[str]
) -> Optional[BootOutcome]:
    if env.dhcp is None:
        trace.append("pxe: no DHCP server on segment")
        return None
    lease = env.dhcp.discover(mac)
    if lease is None:
        trace.append("pxe: DHCP discover timed out")
        return None
    if lease.bootfile is None or env.tftp is None:
        trace.append("pxe: lease has no bootfile / no TFTP")
        return None
    try:
        rom = env.tftp.fetch(lease.bootfile)
    except NetworkError as exc:
        trace.append(f"pxe: {exc}")
        return None
    trace.append(f"pxe: fetched ROM {lease.bootfile}")

    if rom == GRUB4DOS_ROM:
        target = Grub4DosPxe(env.tftp, disk).boot(mac)
        trace.extend(target.trace)
        return _target_to_outcome(disk, target, via="pxe-grub4dos", trace=trace)
    if rom == PXELINUX_ROM:
        action = Pxelinux(env.tftp).boot(mac)
        if action.kind == "kernel":
            trace.append(f"pxelinux: network kernel {action.kernel}")
            return BootOutcome(
                os_name="installer",
                via="pxe-pxelinux",
                installer_args=action.append,
                trace=trace,
            )
        trace.append("pxelinux: LOCALBOOT -> normal boot order")
        return None  # quit PXE, continue with the next BIOS device
    raise BootError(f"unknown PXE ROM contents {rom[:32]!r}")


# -- local-disk path ----------------------------------------------------------


def _boot_disk(disk: Disk, trace: List[str]) -> BootOutcome:
    code = disk.mbr.boot_code
    if code is None:
        raise BootError("disk: MBR has no boot code")
    if code.is_grub:
        trace.append(f"mbr: GRUB stage1 -> partition {code.config_partition}")
        try:
            fs = disk.filesystem(code.config_partition)
            text = fs.read(GRUB_MENU_PATH)
        except Exception as exc:
            raise BootError(f"GRUB stage2/menu unreadable: {exc}") from exc
        target = GrubExecutor(disk).execute_text(text)
        trace.extend(target.trace)
        return _target_to_outcome(disk, target, via="mbr-grub", trace=trace)
    trace.append(f"mbr: {code.loader} -> active partition")
    active = boot_active_partition(disk)
    trace.append(f"vbr: {active.linux_name} bootmgr")
    return BootOutcome(
        os_name="windows", via="mbr-active",
        root_partition=active.number, trace=trace,
    )


# -- shared ----------------------------------------------------------------


def _target_to_outcome(
    disk: Disk, target: BootTarget, via: str, trace: List[str]
) -> BootOutcome:
    if target.kind == "linux":
        root = target.root_partition_number
        if root is None:
            raise BootError(f"linux entry {target.title!r} lacks root= argument")
        rootfs = _mounted(disk, root)
        if not rootfs.isfile(LINUX_ROOT_MARKER):
            raise BootError(
                f"kernel panic: {target.root_device} has no Linux installation"
            )
        return BootOutcome(
            os_name="linux", via=via, root_partition=root, trace=trace
        )
    if target.kind == "chainload":
        part = disk.partition(target.chainload_partition)
        if not vbr_bootable(part):
            raise BootError(
                f"chainload {part.linux_name}: volume boot record not bootable"
            )
        return BootOutcome(
            os_name="windows", via=via, root_partition=part.number, trace=trace
        )
    raise BootError(f"unresolvable boot target kind {target.kind!r}")


def _mounted(disk: Disk, partition: int) -> Filesystem:
    try:
        return disk.filesystem(partition)
    except Exception as exc:
        raise BootError(str(exc)) from exc
