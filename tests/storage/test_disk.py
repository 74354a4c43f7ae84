"""Unit tests for Disk / Partition / MBR."""

import pytest

from repro.errors import StorageError
from repro.storage import Disk, FsType, PartitionKind
from repro.storage.mbr import BootCode
from repro.storage.partition import grub_index_to_number


@pytest.fixture()
def disk():
    return Disk(size_mb=250_000)


def test_disk_size_validation():
    with pytest.raises(StorageError):
        Disk(size_mb=0)


def test_primary_partitions_numbered_1_to_4(disk):
    nums = [disk.create_partition(1000).number for _ in range(4)]
    assert nums == [1, 2, 3, 4]
    with pytest.raises(StorageError):
        disk.create_partition(1000)


def test_partitions_packed_end_to_end(disk):
    p1 = disk.create_partition(1000)
    p2 = disk.create_partition(2000)
    assert p1.start_mb == 0
    assert p2.start_mb == p1.end_mb
    assert not p1.overlaps(p2)


def test_overflow_rejected(disk):
    disk.create_partition(200_000)
    with pytest.raises(StorageError):
        disk.create_partition(100_000)


def test_logical_requires_extended(disk):
    with pytest.raises(StorageError):
        disk.create_partition(100, PartitionKind.LOGICAL)


def test_logical_numbering_starts_at_5(disk):
    disk.create_partition(1000, PartitionKind.PRIMARY)
    disk.create_partition(50_000, PartitionKind.EXTENDED)
    l1 = disk.create_partition(512, PartitionKind.LOGICAL)
    l2 = disk.create_partition(1000, PartitionKind.LOGICAL)
    assert (l1.number, l2.number) == (5, 6)
    assert l1.linux_name == "/dev/sda5"


def test_only_one_extended(disk):
    disk.create_partition(10_000, PartitionKind.EXTENDED)
    with pytest.raises(StorageError):
        disk.create_partition(10_000, PartitionKind.EXTENDED)


def test_logical_overflow_of_extended(disk):
    disk.create_partition(1000, PartitionKind.EXTENDED)
    disk.create_partition(600, PartitionKind.LOGICAL)
    with pytest.raises(StorageError):
        disk.create_partition(600, PartitionKind.LOGICAL)


def test_logicals_live_inside_extended(disk):
    ext = disk.create_partition(10_000, PartitionKind.EXTENDED)
    log = disk.create_partition(512, PartitionKind.LOGICAL)
    assert ext.start_mb <= log.start_mb and log.end_mb <= ext.end_mb


def test_eridani_v1_layout_numbers(disk):
    """The paper's v1 layout: sda1 Windows, sda2 /boot, sda5 swap,
    sda6 FAT control, sda7 root (Figures 2-3 use (hd0,5)=sda6)."""
    win = disk.create_partition(150_000)
    boot = disk.create_partition(100)
    disk.create_partition(90_000, PartitionKind.EXTENDED)
    swap = disk.create_partition(512, PartitionKind.LOGICAL)
    fat = disk.create_partition(100, PartitionKind.LOGICAL)
    root = disk.create_partition(80_000, PartitionKind.LOGICAL)
    assert [p.number for p in (win, boot, swap, fat, root)] == [1, 2, 5, 6, 7]
    assert fat.number - 1 == 5  # GRUB's (hd0,5)
    assert root.linux_name == "/dev/sda7"


def test_grub_index_roundtrip():
    assert grub_index_to_number(5) == 6
    with pytest.raises(StorageError):
        grub_index_to_number(-1)


def test_format_creates_fresh_filesystem(disk):
    p = disk.create_partition(1000)
    fs1 = p.format(FsType.EXT3)
    fs1.write("/etc/hostname", "node01")
    fs2 = p.format(FsType.EXT3)
    assert fs2 is p.filesystem
    assert not fs2.exists("/etc/hostname")  # reformat destroys data


def test_format_extended_rejected(disk):
    ext = disk.create_partition(10_000, PartitionKind.EXTENDED)
    with pytest.raises(StorageError):
        ext.format(FsType.EXT3)


def test_filesystem_accessor_requires_format(disk):
    disk.create_partition(1000)
    with pytest.raises(StorageError):
        disk.filesystem(1)


def test_set_active_is_exclusive(disk):
    disk.create_partition(1000)
    disk.create_partition(1000)
    disk.set_active(1)
    disk.set_active(2)
    assert disk.active_partition.number == 2
    assert not disk.partition(1).active


def test_set_active_rejects_logical(disk):
    disk.create_partition(10_000, PartitionKind.EXTENDED)
    disk.create_partition(512, PartitionKind.LOGICAL)
    with pytest.raises(StorageError):
        disk.set_active(5)


def test_clean_wipes_partitions_and_mbr(disk):
    disk.create_partition(1000).format(FsType.NTFS)
    disk.install_mbr(BootCode(BootCode.GENERIC))
    disk.clean()
    assert disk.partitions == []
    assert not disk.mbr.bootable
    # logical numbering resets after clean
    disk.create_partition(10_000, PartitionKind.EXTENDED)
    assert disk.create_partition(512, PartitionKind.LOGICAL).number == 5


def test_delete_extended_cascades_logicals(disk):
    disk.create_partition(10_000, PartitionKind.EXTENDED)
    disk.create_partition(512, PartitionKind.LOGICAL)
    disk.create_partition(512, PartitionKind.LOGICAL)
    disk.delete_partition(1)
    assert disk.partitions == []


def test_mbr_install_grub_requires_existing_config_partition(disk):
    with pytest.raises(StorageError):
        disk.install_mbr(BootCode(BootCode.GRUB, config_partition=2))
    disk.create_partition(1000)
    disk.create_partition(100)
    disk.install_mbr(BootCode(BootCode.GRUB, config_partition=2))
    assert disk.mbr.boot_code.is_grub


def test_mbr_write_count_tracks_clobbers(disk):
    disk.create_partition(100)
    disk.install_mbr(BootCode(BootCode.GENERIC))
    disk.install_mbr(BootCode(BootCode.WINDOWS))
    assert disk.mbr.write_count == 2
    assert disk.mbr.boot_code.loader == "windows"


def test_bootcode_validation():
    with pytest.raises(ValueError):
        BootCode("lilo")
    with pytest.raises(ValueError):
        BootCode(BootCode.GRUB)  # needs config partition


def test_find_by_fstype(disk):
    disk.create_partition(1000).format(FsType.NTFS)
    disk.create_partition(1000).format(FsType.EXT3)
    disk.create_partition(1000).format(FsType.NTFS)
    assert [p.number for p in disk.find_by_fstype(FsType.NTFS)] == [1, 3]


def test_layout_summary_mentions_every_partition(disk):
    disk.create_partition(150_000).format(FsType.NTFS, label="Node")
    disk.create_partition(100).format(FsType.EXT3)
    text = disk.layout_summary()
    assert "/dev/sda1" in text and "/dev/sda2" in text and "ntfs" in text


def test_free_mb_ignores_logicals(disk):
    disk.create_partition(100_000, PartitionKind.EXTENDED)
    disk.create_partition(50_000, PartitionKind.LOGICAL)
    assert disk.free_mb() == 150_000
