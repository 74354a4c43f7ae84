"""Tests for the diskpart interpreter against the paper's three scripts
(Figures 9, 10 and 15)."""

import pytest

from repro.errors import StorageError
from repro.storage import Disk, DiskpartInterpreter, FsType, PartitionKind
from repro.storage.diskpart import (
    MODIFIED_DISKPART_TXT_V1,
    ORIGINAL_DISKPART_TXT,
    REIMAGE_DISKPART_TXT_V2,
    parse_diskpart_script,
)
from repro.storage.mbr import BootCode


@pytest.fixture()
def disk():
    return Disk(size_mb=250_000)


def dual_boot_disk():
    """A deployed dual-boot disk: Windows sda1 + Linux sda2/5/6/7."""
    d = Disk(size_mb=250_000)
    d.create_partition(150_000).format(FsType.NTFS, label="Node")
    d.create_partition(100).format(FsType.EXT3, label="boot")
    d.create_partition(99_000, PartitionKind.EXTENDED)
    d.create_partition(512, PartitionKind.LOGICAL).format(FsType.SWAP)
    d.create_partition(100, PartitionKind.LOGICAL).format(FsType.FAT)
    d.create_partition(98_000, PartitionKind.LOGICAL).format(FsType.EXT3, label="root")
    d.filesystem(7).write("/home/sliang/data.txt", "precious")
    d.install_mbr(BootCode(BootCode.GRUB, config_partition=2))
    return d


def test_parse_original_script():
    cmds = parse_diskpart_script(ORIGINAL_DISKPART_TXT)
    assert [c.verb for c in cmds] == [
        "select_disk", "clean", "create_primary", "assign", "format",
        "active", "exit",
    ]
    assert cmds[2].args["size_mb"] is None


def test_parse_modified_script_size():
    cmds = parse_diskpart_script(MODIFIED_DISKPART_TXT_V1)
    assert cmds[2].args["size_mb"] == 150_000.0


def test_parse_format_flags():
    cmds = parse_diskpart_script(ORIGINAL_DISKPART_TXT)
    fmt = [c for c in cmds if c.verb == "format"][0]
    assert fmt.args == {"fs": "ntfs", "label": "Node", "quick": True, "override": True}


def test_parse_unknown_command_raises():
    with pytest.raises(StorageError):
        parse_diskpart_script("select disk 0\nfrobnicate\n")


def test_original_script_claims_whole_disk(disk):
    result = DiskpartInterpreter(disk).run(ORIGINAL_DISKPART_TXT)
    assert result.cleaned
    assert result.created == [1]
    assert disk.partition(1).size_mb == 250_000
    assert disk.partition(1).fstype is FsType.NTFS
    assert disk.active_partition.number == 1
    assert result.drive_letters == {"C": 1}


def test_modified_v1_script_leaves_space_for_linux(disk):
    DiskpartInterpreter(disk).run(MODIFIED_DISKPART_TXT_V1)
    assert disk.partition(1).size_mb == 150_000
    assert disk.free_mb() == 100_000


def test_original_script_destroys_linux_partitions():
    """Figure 9 semantics: `clean` wipes the Linux half AND the MBR —
    this is the v1 collateral-reinstall failure mode."""
    d = dual_boot_disk()
    DiskpartInterpreter(d).run(ORIGINAL_DISKPART_TXT)
    assert len(d.partitions) == 1
    assert d.mbr.boot_code is None or not d.mbr.boot_code.is_grub


def test_v1_modified_script_still_destroys_linux():
    d = dual_boot_disk()
    DiskpartInterpreter(d).run(MODIFIED_DISKPART_TXT_V1)
    # clean drops everything even though only 150GB is re-claimed
    assert [p.number for p in d.partitions] == [1]


def test_v2_reimage_preserves_linux():
    """Figure 15 semantics: only partition 1 is reformatted; Linux
    partitions, their data and the MBR survive."""
    d = dual_boot_disk()
    result = DiskpartInterpreter(d).run(REIMAGE_DISKPART_TXT_V2)
    assert not result.cleaned
    assert result.formatted == [1]
    assert [p.number for p in d.partitions] == [1, 2, 3, 5, 6, 7]
    assert d.filesystem(7).read("/home/sliang/data.txt") == "precious"
    assert d.mbr.boot_code.is_grub  # MBR untouched


def test_v2_reimage_wipes_windows_data():
    d = dual_boot_disk()
    d.filesystem(1).write("/Users/Public/file.txt", "old windows data")
    DiskpartInterpreter(d).run(REIMAGE_DISKPART_TXT_V2)
    assert not d.filesystem(1).exists("/Users/Public/file.txt")


def test_v2_reimage_on_blank_disk_fails():
    """Figure 15 needs an existing partition 1 — a truly bare node must be
    deployed with the Figure 10 script first."""
    d = Disk(size_mb=250_000)
    with pytest.raises(StorageError):
        DiskpartInterpreter(d).run(REIMAGE_DISKPART_TXT_V2)


def test_format_without_selection_fails(disk):
    with pytest.raises(StorageError):
        DiskpartInterpreter(disk).run(
            'select disk 0\nformat FS=NTFS LABEL="Node" QUICK OVERRIDE\n'
        )


def test_commands_without_disk_selection_fail(disk):
    with pytest.raises(StorageError):
        DiskpartInterpreter(disk).run("clean\n")


def test_select_nonzero_disk_fails(disk):
    with pytest.raises(StorageError):
        DiskpartInterpreter(disk).run("select disk 1\n")


def test_create_primary_without_space_fails(disk):
    disk.create_partition(250_000)
    with pytest.raises(StorageError):
        DiskpartInterpreter(disk).run(
            "select disk 0\ncreate partition primary\n"
        )


def test_uppercase_rem_is_a_comment():
    """``REM`` is how Windows scripts usually spell a comment."""
    cmds = parse_diskpart_script("REM wipe the disk\nRem again\nselect disk 0\n")
    assert [c.verb for c in cmds] == ["select_disk"]


def test_remove_is_a_command_not_a_comment():
    """Only the whole word ``rem`` starts a comment: ``remove`` is an
    (unsupported) diskpart command and fails like any other."""
    with pytest.raises(StorageError, match="unknown diskpart command"):
        parse_diskpart_script("select disk 0\nremove letter=c\n")


def test_parsed_commands_are_read_only():
    """Every node shares one parse of a script: it cannot be edited."""
    cmds = parse_diskpart_script(MODIFIED_DISKPART_TXT_V1)
    with pytest.raises(TypeError):
        cmds[2].args["size_mb"] = 1.0
    assert parse_diskpart_script(MODIFIED_DISKPART_TXT_V1)[2].args["size_mb"] == 150_000.0


def test_a_bad_script_fails_on_every_parse():
    for _ in range(2):
        with pytest.raises(StorageError, match="frobnicate"):
            parse_diskpart_script("select disk 0\nfrobnicate\n")
