"""Executing a GRUB config against a disk: what would actually boot?

The executor walks the default menu entry command-by-command with real
side conditions: ``configfile`` re-reads a file from the current root
partition (the Figure-2 redirect into the FAT control partition),
``kernel`` requires the kernel image to exist on the root partition, and
``chainloader +1`` requires a bootable volume boot record on the target.
Any unsatisfied condition raises :class:`~repro.errors.BootError` — the
node "hangs at the bootloader".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro.errors import BootError, StorageError
from repro.boot.grubcfg import (
    GrubConfig,
    GrubMenu,
    parse_device,
    parse_grub_menu,
    split_device_path,
)
from repro.storage.disk import Disk
from repro.storage.partition import grub_index_to_number

#: Maximum ``configfile`` indirections before declaring a loop.
MAX_CONFIGFILE_DEPTH = 4

_ROOT_ARG_RE = re.compile(r"\broot=(/dev/sd[a-z]\d+)\b")
_LINUX_DEV_RE = re.compile(r"/dev/sd[a-z](\d+)")


@dataclass
class BootTarget:
    """The resolved outcome of a GRUB menu entry.

    Exactly one of the two shapes is populated:

    * **Linux**: ``kind == "linux"`` with ``kernel_partition`` /
      ``kernel_path`` / ``initrd_path`` and ``root_device`` (the
      ``root=/dev/sdaN`` kernel argument);
    * **chainload**: ``kind == "chainload"`` with ``chainload_partition``.
    """

    kind: str
    title: str
    kernel_partition: Optional[int] = None
    kernel_path: Optional[str] = None
    kernel_args: str = ""
    initrd_path: Optional[str] = None
    root_device: Optional[str] = None
    chainload_partition: Optional[int] = None
    trace: List[str] = field(default_factory=list)

    @property
    def root_partition_number(self) -> Optional[int]:
        """Partition number from ``root=/dev/sdaN``, or ``None``."""
        if self.root_device is None:
            return None
        m = _LINUX_DEV_RE.fullmatch(self.root_device)
        if not m:
            raise BootError(f"unparseable root device {self.root_device!r}")
        return int(m.group(1))


class GrubExecutor:
    """Executes GRUB configs against one local disk.

    Parameters
    ----------
    disk:
        The node's local disk.
    net_fetch:
        Optional callable fetching a path over the network (TFTP) — used by
        GRUB4DOS-over-PXE when ``configfile`` runs before any local ``root``
        has been set.
    """

    def __init__(
        self, disk: Disk, net_fetch: Optional[Callable[[str], str]] = None
    ) -> None:
        self.disk = disk
        self.net_fetch = net_fetch

    # -- public API -------------------------------------------------------

    def execute(self, config: Union[GrubConfig, GrubMenu]) -> BootTarget:
        """Resolve *config*'s default entry into a :class:`BootTarget`."""
        return self._execute(config, depth=0, trace=[], root=None)

    def execute_text(self, text: str) -> BootTarget:
        """Parse then execute ``menu.lst`` text."""
        return self.execute(parse_grub_menu(text))

    # -- internals -----------------------------------------------------------

    def _execute(
        self,
        config: Union[GrubConfig, GrubMenu],
        depth: int,
        trace: List[str],
        root: Optional[int],
    ) -> BootTarget:
        entry = config.default_entry()
        trace.append(f"entry[{config.default}] {entry.title!r}")
        target = BootTarget(kind="", title=entry.title, trace=trace)

        for verb, arg in entry.commands:
            if verb in ("root", "rootnoverify"):
                _, part_index = parse_device(arg)
                root = grub_index_to_number(part_index)
                if verb == "root":
                    # plain `root` probes the partition; it must exist
                    if not self.disk.has_partition(root):
                        raise BootError(
                            f"GRUB root {arg}: no partition {root} on disk"
                        )
                trace.append(f"{verb} {arg} -> partition {root}")
            elif verb == "configfile":
                if depth + 1 > MAX_CONFIGFILE_DEPTH:
                    raise BootError("configfile indirection loop")
                text = self._read(root, arg, trace)
                sub = parse_grub_menu(text)
                trace.append(f"configfile {arg} ({len(sub.entries)} entries)")
                return self._execute(sub, depth + 1, trace, root)
            elif verb == "kernel":
                path, _, args = arg.partition(" ")
                device, rel = split_device_path(path)
                kpart = (
                    grub_index_to_number(device[1]) if device is not None else root
                )
                if kpart is None:
                    raise BootError(f"kernel {path}: no root set")
                self._require_file(kpart, rel, f"kernel {path}")
                target.kind = "linux"
                target.kernel_partition = kpart
                target.kernel_path = rel
                target.kernel_args = args.strip()
                m = _ROOT_ARG_RE.search(args)
                target.root_device = m.group(1) if m else None
                trace.append(f"kernel {rel} on partition {kpart}")
            elif verb == "initrd":
                device, rel = split_device_path(arg)
                ipart = (
                    grub_index_to_number(device[1]) if device is not None else root
                )
                if ipart is None:
                    raise BootError(f"initrd {arg}: no root set")
                self._require_file(ipart, rel, f"initrd {arg}")
                target.initrd_path = rel
                trace.append(f"initrd {rel}")
            elif verb == "chainloader":
                if arg != "+1":
                    raise BootError(f"unsupported chainloader argument {arg!r}")
                if root is None:
                    raise BootError("chainloader +1 with no root set")
                target.kind = "chainload"
                target.chainload_partition = root
                trace.append(f"chainloader +1 on partition {root}")
            elif verb in ("makeactive", "savedefault", "boot"):
                trace.append(verb)
            else:  # pragma: no cover - parser restricts verbs
                raise BootError(f"unknown GRUB verb {verb!r}")

        if not target.kind:
            raise BootError(
                f"GRUB entry {entry.title!r} has neither kernel nor chainloader"
            )
        return target

    def _read(self, root: Optional[int], path: str, trace: List[str]) -> str:
        device, rel = split_device_path(path)
        if device is not None:
            root = grub_index_to_number(device[1])
        if root is None:
            if self.net_fetch is None:
                raise BootError(f"configfile {path}: no root and no network")
            trace.append(f"net fetch {rel}")
            return self.net_fetch(rel)
        try:
            fs = self.disk.filesystem(root)
            return fs.read(rel)
        except StorageError as exc:
            raise BootError(f"configfile {path}: {exc}") from exc

    def _require_file(self, partition: int, path: str, what: str) -> None:
        try:
            fs = self.disk.filesystem(partition)
        except StorageError as exc:
            raise BootError(f"{what}: {exc}") from exc
        if not fs.isfile(path):
            raise BootError(f"{what}: file not found on partition {partition}")
