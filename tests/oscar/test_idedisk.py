"""ide.disk parsing & validation (Figure 14)."""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.errors import ConfigurationError
from repro.oscar import parse_ide_disk
from repro.oscar.idedisk import (
    IDE_DISK_STOCK,
    IDE_DISK_V1_MANUAL,
    IDE_DISK_V2,
    IdeDiskEntry,
)


def test_parse_figure14_v2_layout():
    layout = parse_ide_disk(IDE_DISK_V2)
    parts = layout.partitions
    assert [e.partition_number for e in parts] == [1, 2, 5, 6]
    skip = layout.entry_for(1)
    assert skip.label == "skip"
    assert skip.size_mb == 16000
    boot = layout.entry_for(2)
    assert boot.mountpoint == "/boot" and boot.bootable
    root = layout.entry_for(6)
    assert root.size_mb is None and root.mountpoint == "/"
    layout.validate()


def test_non_disk_entries_kept_but_not_partitions():
    layout = parse_ide_disk(IDE_DISK_V2)
    devices = [e.device for e in layout.entries]
    assert "/dev/shm" in devices
    assert "nfs_oscar:/home" in devices
    assert all(not e.is_disk_partition for e in layout.entries
               if e.device in ("/dev/shm", "nfs_oscar:/home"))


def test_stock_layout_valid():
    parse_ide_disk(IDE_DISK_STOCK).validate()


def test_v1_manual_layout_has_windows_and_fat():
    layout = parse_ide_disk(IDE_DISK_V1_MANUAL)
    layout.validate()
    assert layout.entry_for(1).label == "ntfs"
    assert layout.entry_for(6).label == "fat32"
    assert layout.entry_for(6).mountpoint == "/boot/swap"
    assert layout.root_partition() == 7


def test_root_and_boot_lookup():
    layout = parse_ide_disk(IDE_DISK_V2)
    assert layout.root_partition() == 6
    assert layout.boot_partition() == 2


def test_missing_root_rejected():
    with pytest.raises(ConfigurationError, match="no root"):
        parse_ide_disk("/dev/sda1 100 ext3 /boot\n").validate()


def test_duplicate_device_rejected():
    text = "/dev/sda1 100 ext3 /\n/dev/sda1 200 swap\n"
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_ide_disk(text).validate()


def test_multiple_star_sizes_rejected():
    text = "/dev/sda1 * ext3 /\n/dev/sda2 * ext3 /boot\n"
    with pytest.raises(ConfigurationError, match="at most one"):
        parse_ide_disk(text).validate()


def test_star_must_be_last():
    text = "/dev/sda1 * ext3 /\n/dev/sda2 100 ext3 /boot\n"
    with pytest.raises(ConfigurationError, match="last"):
        parse_ide_disk(text).validate()


def test_swap_with_mountpoint_rejected():
    with pytest.raises(ConfigurationError, match="cannot be mounted"):
        parse_ide_disk("/dev/sda1 512 swap /scratch\n/dev/sda2 * ext3 /\n").validate()


def test_too_few_fields_rejected():
    with pytest.raises(ConfigurationError, match="3 fields"):
        parse_ide_disk("/dev/sda1 100\n")


def test_bad_size_rejected():
    with pytest.raises(ConfigurationError, match="bad size"):
        parse_ide_disk("/dev/sda1 tiny ext3 /\n")


def test_comments_and_blanks_skipped():
    layout = parse_ide_disk("# layout\n\n/dev/sda1 * ext3 /\n")
    assert len(layout.partitions) == 1


def test_entry_for_missing_partition():
    layout = parse_ide_disk(IDE_DISK_V2)
    with pytest.raises(ConfigurationError):
        layout.entry_for(3)


def test_partition_number_is_read_once_from_the_device():
    entry = IdeDiskEntry(device="/dev/sdb12", size_mb=10.0, label="ext3")
    assert entry.partition_number == 12
    assert IdeDiskEntry(device="/dev/shm", size_mb=None, label="tmpfs").partition_number is None
    assert replace(entry, device="/dev/sda3").partition_number == 3
    assert entry == IdeDiskEntry(device="/dev/sdb12", size_mb=10.0, label="ext3")
    with pytest.raises(FrozenInstanceError):
        entry.partition_number = 1  # type: ignore[misc]
