"""``ide.disk`` — systeminstaller's partition-layout file.

Figure 14 (v2)::

    /dev/sda1  16000  skip
    /dev/sda2  100    ext3  /boot  defaults  bootable
    /dev/sda5  512    swap
    /dev/sda6  *      ext3  /      defaults
    /dev/shm   -      tmpfs /dev/shm defaults
    nfs_oscar:/home - nfs   /home  rw

``skip`` is the new disk-format label the v2 patches add: the partition
is *reserved* (created, never formatted, never mounted) so a Windows
installation that lives there survives Linux reimaging.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigurationError

_SDA_RE = re.compile(r"^/dev/sd[a-z](\d+)$")

#: filesystem labels systeminstaller understands out of the box
STOCK_LABELS = ("ext3", "swap", "fat32", "ntfs", "tmpfs", "nfs")
#: added by the v2 patches
SKIP_LABEL = "skip"


@dataclass(frozen=True)
class IdeDiskEntry:
    """One line of ``ide.disk``."""

    device: str
    size_mb: Optional[float]  # None for '*' (rest) and '-' (non-disk)
    label: str
    mountpoint: Optional[str] = None
    options: str = ""
    bootable: bool = False
    #: N of ``/dev/sdXN``, read from ``device`` once; ``None`` off-disk
    partition_number: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = _SDA_RE.match(self.device)
        object.__setattr__(
            self, "partition_number", int(m.group(1)) if m else None
        )

    @property
    def is_disk_partition(self) -> bool:
        return self.partition_number is not None


@dataclass
class IdeDiskLayout:
    """A parsed layout with validation helpers."""

    entries: List[IdeDiskEntry] = field(default_factory=list)

    @property
    def partitions(self) -> List[IdeDiskEntry]:
        return [e for e in self.entries if e.is_disk_partition]

    def entry_for(self, number: int) -> IdeDiskEntry:
        for entry in self.partitions:
            if entry.partition_number == number:
                return entry
        raise ConfigurationError(f"ide.disk has no /dev/sda{number}")

    def uses_label(self, label: str) -> bool:
        return any(e.label == label for e in self.entries)

    def root_partition(self) -> int:
        for entry in self.partitions:
            if entry.mountpoint == "/":
                return entry.partition_number
        raise ConfigurationError("ide.disk defines no root (/) partition")

    def boot_partition(self) -> Optional[int]:
        for entry in self.partitions:
            if entry.mountpoint == "/boot":
                return entry.partition_number
        return None

    def validate(self) -> None:
        numbers = [e.partition_number for e in self.partitions]
        if len(numbers) != len(set(numbers)):
            raise ConfigurationError("duplicate devices in ide.disk")
        star = [e for e in self.partitions if e.size_mb is None]
        if len(star) > 1:
            raise ConfigurationError("at most one '*'-sized partition allowed")
        if star and star[0].partition_number != max(numbers):
            raise ConfigurationError(
                "the '*'-sized partition must be the last one"
            )
        self.root_partition()  # must exist
        for entry in self.partitions:
            mountable = entry.label in ("ext3", "fat32", "ntfs")
            if entry.mountpoint and not mountable:
                raise ConfigurationError(
                    f"{entry.device}: label {entry.label!r} cannot be mounted "
                    f"at {entry.mountpoint}"
                )


def parse_ide_disk(text: str) -> IdeDiskLayout:
    """Parse ``ide.disk`` text (unknown labels are *kept* — whether they are
    supported is the image builder's decision, since that depends on the
    patch level)."""
    layout = IdeDiskLayout()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 3:
            raise ConfigurationError(
                f"ide.disk line {lineno}: expected at least 3 fields: {line!r}"
            )
        device, size_text, label = fields[0], fields[1], fields[2]
        size: Optional[float]
        if size_text in ("*", "-"):
            size = None
        else:
            try:
                size = float(size_text)
            except ValueError:
                raise ConfigurationError(
                    f"ide.disk line {lineno}: bad size {size_text!r}"
                ) from None
        mountpoint = fields[3] if len(fields) > 3 else None
        options = fields[4] if len(fields) > 4 else ""
        bootable = "bootable" in fields[4:]
        layout.entries.append(
            IdeDiskEntry(
                device=device,
                size_mb=size,
                label=label,
                mountpoint=mountpoint,
                options=options,
                bootable=bootable,
            )
        )
    return layout


#: Figure 14 verbatim (sizes in MB).
IDE_DISK_V2 = """\
/dev/sda1 16000 skip
/dev/sda2 100 ext3 /boot defaults bootable
/dev/sda5 512 swap
/dev/sda6 * ext3 / defaults
/dev/shm - tmpfs /dev/shm defaults
nfs_oscar:/home - nfs /home rw
"""

#: The stock OSCAR layout: Linux owns the whole disk (no Windows hole).
IDE_DISK_STOCK = """\
/dev/sda1 100 ext3 /boot defaults bootable
/dev/sda5 512 swap
/dev/sda6 * ext3 / defaults
/dev/shm - tmpfs /dev/shm defaults
nfs_oscar:/home - nfs /home rw
"""

#: The v1 hand-edited layout of §III.C.1: Windows hole + FAT control
#: partition + Linux, all spelled out manually.
IDE_DISK_V1_MANUAL = """\
/dev/sda1 150000 ntfs
/dev/sda2 100 ext3 /boot defaults bootable
/dev/sda5 512 swap
/dev/sda6 100 fat32 /boot/swap defaults
/dev/sda7 * ext3 / defaults
/dev/shm - tmpfs /dev/shm defaults
nfs_oscar:/home - nfs /home rw
"""
