"""Deploying images to disks: defect surfacing and Windows preservation."""

import pytest

from repro.boot import Firmware, resolve_boot
from repro.boot.chain import BootEnvironment
from repro.errors import DeploymentError
from repro.oscar import build_image, deploy_image_to_disk, parse_ide_disk
from repro.oscar.idedisk import IDE_DISK_STOCK, IDE_DISK_V1_MANUAL, IDE_DISK_V2
from repro.oslayer.windows import install_windows
from repro.storage import Disk, FsType

MAC = "02:00:5e:00:00:01"


def fresh_disk():
    return Disk(size_mb=250_000)


def windows_first_disk():
    """A disk where Windows was deployed first (Figure-10 script)."""
    from repro.storage.diskpart import DiskpartInterpreter, MODIFIED_DISKPART_TXT_V1

    disk = fresh_disk()
    DiskpartInterpreter(disk).run(MODIFIED_DISKPART_TXT_V1)
    install_windows(disk, system_partition=1)
    disk.filesystem(1).write("/Users/Public/data.txt", "windows user data")
    return disk


def v1_ready_image(**kw):
    image = build_image(
        parse_ide_disk(IDE_DISK_V1_MANUAL), include_dualboot_files=True, **kw
    )
    image.apply_all_manual_edits()
    return image


def test_stock_image_deploys_and_boots():
    disk = fresh_disk()
    image = build_image(parse_ide_disk(IDE_DISK_STOCK))
    report = deploy_image_to_disk(image, disk)
    assert report.grub_mbr_installed
    outcome = resolve_boot(disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert outcome.os_name == "linux"
    assert outcome.root_partition == 6


def test_unedited_v1_image_fails_at_fat_rsync():
    image = build_image(
        parse_ide_disk(IDE_DISK_V1_MANUAL), include_dualboot_files=True
    )
    with pytest.raises(DeploymentError, match="mkpart was used"):
        deploy_image_to_disk(image, fresh_disk())


def test_partially_edited_v1_image_fails_at_rsync_flags():
    image = build_image(
        parse_ide_disk(IDE_DISK_V1_MANUAL), include_dualboot_files=True
    )
    image.edit_fat_mkpartfs()
    with pytest.raises(DeploymentError, match="modify-window"):
        deploy_image_to_disk(image, fresh_disk())


def test_foreign_fstab_lines_fail_unless_removed():
    image = build_image(parse_ide_disk(IDE_DISK_V1_MANUAL))
    image.edit_fat_mkpartfs()
    image.edit_rsync_fat_flags()
    with pytest.raises(DeploymentError, match="umount /dev/sda1"):
        deploy_image_to_disk(image, fresh_disk())


def test_fully_edited_v1_image_deploys():
    disk = fresh_disk()
    report = deploy_image_to_disk(v1_ready_image(), disk)
    assert disk.partition(6).fstype is FsType.FAT
    assert disk.filesystem(6).isfile("/bootcontrol.pl")
    outcome = resolve_boot(disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert outcome.os_name == "linux"
    assert outcome.root_partition == 7


def test_v1_deploy_preserves_existing_windows():
    """Windows installed first; the (edited) OSCAR deploy recreates sda1
    with mkpart at identical geometry -> data survives."""
    disk = windows_first_disk()
    report = deploy_image_to_disk(v1_ready_image(), disk)
    assert 1 in report.partitions_preserved
    assert not report.destroyed_windows
    assert disk.filesystem(1).read("/Users/Public/data.txt") == "windows user data"
    # but GRUB now owns the MBR (Linux installed second, as §III.C.2 orders)
    assert disk.mbr.boot_code.is_grub


def test_v1_deploy_with_mismatched_geometry_destroys_windows():
    """If the admin sizes the ide.disk hole wrong, Windows is lost."""
    from repro.storage.diskpart import DiskpartInterpreter

    disk = fresh_disk()
    DiskpartInterpreter(disk).run(
        "select disk 0\nclean\ncreate partition primary size=120000\n"
        'format FS=NTFS LABEL="Node" QUICK OVERRIDE\nactive\nexit\n'
    )
    install_windows(disk, system_partition=1)
    report = deploy_image_to_disk(v1_ready_image(), disk)  # 150GB hole
    assert report.destroyed_windows
    assert 1 not in report.partitions_preserved


def test_v2_deploy_preserves_windows_via_skip():
    disk = windows_first_disk()
    # v2 hole must match the Windows partition: 150 GB, not Figure 14's 16 GB
    layout = parse_ide_disk(IDE_DISK_V2.replace("16000", "150000"))
    image = build_image(layout, patched=True)
    report = deploy_image_to_disk(image, disk)
    assert 1 in report.partitions_preserved
    assert not report.destroyed_windows
    assert not report.grub_mbr_installed
    # Windows' own MBR still intact -> disk boots Windows, PXE will boot Linux
    outcome = resolve_boot(disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert outcome.os_name == "windows"


def test_v2_deploy_twice_is_idempotent_for_windows():
    disk = windows_first_disk()
    layout = parse_ide_disk(IDE_DISK_V2.replace("16000", "150000"))
    image = build_image(layout, patched=True)
    deploy_image_to_disk(image, disk)
    disk.filesystem(6).write("/home/user/file", "linux data")
    report = deploy_image_to_disk(image, disk)  # Linux reimage
    assert not report.destroyed_windows
    assert disk.filesystem(1).read("/Users/Public/data.txt") == "windows user data"
    # Linux root was reformatted (mkpartfs): old Linux data gone
    assert not disk.filesystem(6).exists("/home/user/file")


def test_image_tree_without_matching_mount_rejected():
    image = build_image(parse_ide_disk(IDE_DISK_STOCK))
    image.trees["/scratch"] = {"/x": "y"}
    with pytest.raises(DeploymentError, match="no matching ide.disk entry"):
        deploy_image_to_disk(image, fresh_disk())


def test_disks_deployed_from_one_image_share_no_files():
    image = v1_ready_image()
    image.trees["/"] = {"/etc/motd": "welcome"}
    first, second = fresh_disk(), fresh_disk()
    deploy_image_to_disk(image, first)
    deploy_image_to_disk(image, second)
    first.filesystem(7).write("/etc/motd", "edited on node 1")
    first.filesystem(7).write("/etc/extra", "node 1 only")
    assert second.filesystem(7).read("/etc/motd") == "welcome"
    assert not second.filesystem(7).exists("/etc/extra")
    assert image.trees["/"] == {"/etc/motd": "welcome"}


def test_manual_edits_after_a_failed_deploy_apply_to_the_next_node():
    """The §III.C.1 loop: deploy, fail, edit the image, deploy again."""
    image = build_image(
        parse_ide_disk(IDE_DISK_V1_MANUAL), include_dualboot_files=True
    )
    with pytest.raises(DeploymentError):
        deploy_image_to_disk(image, fresh_disk())
    image.apply_all_manual_edits()
    disk = fresh_disk()
    deploy_image_to_disk(image, disk)
    assert disk.filesystem(6).isfile("/bootcontrol.pl")
    outcome = resolve_boot(disk, Firmware.disk_first(), MAC, BootEnvironment())
    assert outcome.os_name == "linux"
