"""Tests for parted mkpart/mkpartfs semantics (systemimager master scripts)."""

import pytest

from repro.errors import StorageError
from repro.storage import Disk, FsType, PartitionKind
from repro.storage.partedops import PartedOp, apply_parted_ops, render_master_script


@pytest.fixture()
def disk():
    return Disk(size_mb=250_000)


def test_mkpartfs_formats(disk):
    ops = [PartedOp("mkpartfs", PartitionKind.PRIMARY, "ext3", 1000)]
    (p,) = apply_parted_ops(disk, ops)
    assert p.fstype is FsType.EXT3


def test_mkpart_does_not_format(disk):
    """The v1 bug: `mkpart fat32` leaves the control partition unformatted,
    so the FAT share is unusable until the admin hand-edits the script."""
    ops = [PartedOp("mkpart", PartitionKind.PRIMARY, "fat32", 100)]
    (p,) = apply_parted_ops(disk, ops)
    assert p.filesystem is None
    assert not p.formatted


def test_star_size_claims_rest(disk):
    disk.create_partition(200_000)
    ops = [PartedOp("mkpartfs", PartitionKind.PRIMARY, "ext3", None)]
    (p,) = apply_parted_ops(disk, ops)
    assert p.size_mb == 50_000


def test_star_size_logical_claims_rest_of_extended(disk):
    disk.create_partition(100_000, PartitionKind.EXTENDED)
    disk.create_partition(512, PartitionKind.LOGICAL)
    ops = [PartedOp("mkpartfs", PartitionKind.LOGICAL, "ext3", None)]
    (p,) = apply_parted_ops(disk, ops)
    assert p.size_mb == 100_000 - 512


def test_logical_before_extended_fails(disk):
    ops = [PartedOp("mkpartfs", PartitionKind.LOGICAL, "ext3", None)]
    with pytest.raises(StorageError):
        apply_parted_ops(disk, ops)


def test_star_size_with_no_space_fails(disk):
    disk.create_partition(250_000)
    with pytest.raises(StorageError):
        apply_parted_ops(
            disk, [PartedOp("mkpartfs", PartitionKind.PRIMARY, "ext3", None)]
        )


def test_unknown_verb_and_fs_rejected():
    with pytest.raises(StorageError):
        PartedOp("mkfs", PartitionKind.PRIMARY, "ext3", 10)
    with pytest.raises(StorageError):
        PartedOp("mkpart", PartitionKind.PRIMARY, "zfs", 10)


def test_render_master_script():
    ops = [
        PartedOp("mkpart", PartitionKind.PRIMARY, "raw", 16_000),
        PartedOp("mkpartfs", PartitionKind.PRIMARY, "ext3", 100),
        PartedOp("mkpartfs", PartitionKind.LOGICAL, "linux-swap", 512),
        PartedOp("mkpartfs", PartitionKind.LOGICAL, "ext3", None),
    ]
    text = render_master_script(ops)
    assert "parted mkpart primary raw 16000MB" in text
    assert "parted mkpartfs logical ext3 REST" in text


def test_full_v1_manual_layout(disk):
    """After the §III.C.1 manual edits the master script creates the
    Windows hole, /boot, and the FAT control partition with mkpartfs."""
    ops = [
        PartedOp("mkpart", PartitionKind.PRIMARY, "ntfs", 150_000),   # reserved
        PartedOp("mkpartfs", PartitionKind.PRIMARY, "ext3", 100),     # /boot
        PartedOp("mkpart", PartitionKind.EXTENDED, "raw", None),
        PartedOp("mkpartfs", PartitionKind.LOGICAL, "linux-swap", 512),
        PartedOp("mkpartfs", PartitionKind.LOGICAL, "fat32", 100),    # control
        PartedOp("mkpartfs", PartitionKind.LOGICAL, "ext3", None),    # root
    ]
    parts = apply_parted_ops(disk, ops)
    assert [p.number for p in parts] == [1, 2, 3, 5, 6, 7]
    assert disk.partition(6).fstype is FsType.FAT
    assert disk.partition(6).number - 1 == 5  # (hd0,5) in Figure 2
