"""Partition entries and filesystem types.

Numbering follows the PC/MBR convention the paper's listings use:
primary (and the extended container) partitions are numbered 1–4, logical
partitions inside the extended container are numbered 5 upward.  GRUB's
``(hd0,N)`` syntax is zero-based — ``(hd0,5)`` is ``/dev/sda6`` — and the
conversion helpers live here so the boot layer and the tests agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import StorageError
from repro.storage.filesystem import Filesystem


class FsType(enum.Enum):
    """Filesystem types that appear in the paper's disk layouts."""

    EXT3 = "ext3"
    NTFS = "ntfs"
    FAT = "fat"  # the v1 shared GRUB-control partition
    SWAP = "swap"
    RAW = "raw"  # created but never formatted (e.g. `skip`-reserved space)

    @property
    def mountable(self) -> bool:
        """Whether an OS can mount files on it."""
        return self in (FsType.EXT3, FsType.NTFS, FsType.FAT)


class PartitionKind(enum.Enum):
    PRIMARY = "primary"
    EXTENDED = "extended"
    LOGICAL = "logical"


@dataclass
class Partition:
    """One slot in a disk's partition table.

    ``filesystem`` is ``None`` until the partition is formatted; formatting
    replaces (destroys) any previous filesystem object.
    """

    number: int
    kind: PartitionKind
    start_mb: float
    size_mb: float
    active: bool = False
    filesystem: Optional[Filesystem] = None

    def __post_init__(self) -> None:
        if self.size_mb <= 0:
            raise StorageError(f"partition size must be positive, got {self.size_mb}")
        if self.start_mb < 0:
            raise StorageError(f"partition start must be >= 0, got {self.start_mb}")

    @property
    def end_mb(self) -> float:
        return self.start_mb + self.size_mb

    @property
    def fstype(self) -> Optional[FsType]:
        return self.filesystem.fstype if self.filesystem is not None else None

    @property
    def formatted(self) -> bool:
        return self.filesystem is not None and self.filesystem.fstype is not FsType.RAW

    def format(self, fstype: FsType, label: str = "") -> Filesystem:
        """(Re)format: installs a fresh empty filesystem, destroying data."""
        if self.kind is PartitionKind.EXTENDED:
            raise StorageError("cannot format an extended container partition")
        self.filesystem = Filesystem(fstype=fstype, label=label)
        return self.filesystem

    def overlaps(self, other: "Partition") -> bool:
        """Do the byte ranges intersect? Logical-inside-extended is allowed
        by the disk layer and filtered there."""
        return self.start_mb < other.end_mb and other.start_mb < self.end_mb

    @property
    def linux_name(self) -> str:
        """Linux device name, e.g. ``/dev/sda1``."""
        return f"/dev/sda{self.number}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fs = self.fstype.value if self.fstype else "unformatted"
        act = " active" if self.active else ""
        return (
            f"<Partition {self.linux_name} {self.kind.value} "
            f"{self.size_mb:.0f}MB {fs}{act}>"
        )


def grub_index_to_number(grub_index: int) -> int:
    """GRUB ``(hd0,N)`` index → partition number (``(hd0,5)`` → 6)."""
    if grub_index < 0:
        raise StorageError(f"invalid GRUB partition index {grub_index}")
    return grub_index + 1
