"""InstallShare + Windows deploy tool tests."""

import pytest

from repro.errors import DeploymentError, StorageError
from repro.hardware import ComputeNode, INTEL_Q8200
from repro.hardware.nic import Nic, mac_for_index
from repro.metrics.effort import AdminEffortLedger
from repro.oslayer.windows import WindowsOS
from repro.simkernel import Simulator
from repro.simkernel.rng import RngStreams
from repro.storage import Filesystem, FsType
from repro.storage.diskpart import (
    MODIFIED_DISKPART_TXT_V1,
    ORIGINAL_DISKPART_TXT,
    REIMAGE_DISKPART_TXT_V2,
)
from repro.winhpc import WinHpcScheduler, WinNodeState
from repro.windeploy import DISKPART_PATH, InstallShare, WindowsDeployTool
from tests.conftest import make_v1_disk


@pytest.fixture()
def head_os():
    fs = Filesystem(FsType.NTFS, label="winhead")
    return WindowsOS("winhead", {"/": fs, "/c": fs})


@pytest.fixture()
def share(head_os):
    return InstallShare(head_os)


def make_node(sim, name="enode01", index=1):
    return ComputeNode(
        sim=sim, name=name, spec=INTEL_Q8200,
        nic=Nic(mac_for_index(index)), rng=RngStreams(index),
    )


def test_share_initialises_with_stock_script(share):
    assert share.is_stock
    assert share.read_diskpart() == ORIGINAL_DISKPART_TXT


def test_share_lives_at_the_figure9_path(share, head_os):
    assert head_os.exists(DISKPART_PATH)
    assert "InstallShare" in DISKPART_PATH


def test_share_requires_windows_head():
    from repro.oslayer import OSInstance

    linux = OSInstance("linux", "eridani", {"/": Filesystem(FsType.EXT3)})
    with pytest.raises(DeploymentError):
        InstallShare(linux)


def test_share_patch_roundtrip(share):
    share.write_diskpart(MODIFIED_DISKPART_TXT_V1)
    assert not share.is_stock
    assert "size=150000" in share.read_diskpart()


def test_share_rejects_broken_script(share):
    with pytest.raises(StorageError):
        share.write_diskpart("select disk 0\nfrobnicate\n")
    assert share.is_stock  # unchanged


def test_deploy_node_blank_disk(share):
    sim = Simulator()
    scheduler = WinHpcScheduler(sim)
    tool = WindowsDeployTool(share, scheduler)
    node = make_node(sim)
    share.write_diskpart(MODIFIED_DISKPART_TXT_V1)
    report = tool.deploy_node(node)
    assert report.cleaned_disk
    assert not report.destroyed_linux  # nothing there to destroy
    assert node.disk.partition(1).fstype is FsType.NTFS
    assert "enode01" in scheduler.nodes
    # node boots windows now
    node.power_on()
    sim.run()
    assert node.os_name == "windows"
    assert scheduler.node("enode01").state is WinNodeState.ONLINE


def test_deploy_over_linux_charges_ledger(share):
    sim = Simulator()
    tool = WindowsDeployTool(share, WinHpcScheduler(sim))
    node = make_node(sim)
    node.disk = make_v1_disk()
    ledger = AdminEffortLedger()
    report = tool.deploy_node(node, ledger=ledger)
    assert report.destroyed_linux
    assert report.mbr_was_grub
    assert ledger.count("reinstall-other-os") == 1


def test_v2_reimage_preserves_linux_no_ledger_entry(share):
    sim = Simulator()
    tool = WindowsDeployTool(share, WinHpcScheduler(sim))
    node = make_node(sim)
    node.disk = make_v1_disk()
    share.write_diskpart(REIMAGE_DISKPART_TXT_V2)
    ledger = AdminEffortLedger()
    report = tool.reimage_node(node, ledger=ledger)
    assert not report.destroyed_linux
    assert ledger.count() == 0
    # but the MBR is still rewritten by the Windows installer
    assert not node.disk.mbr.boot_code.is_grub


def test_v2_reimage_on_blank_disk_fails(share):
    sim = Simulator()
    tool = WindowsDeployTool(share, WinHpcScheduler(sim))
    node = make_node(sim)
    share.write_diskpart(REIMAGE_DISKPART_TXT_V2)
    with pytest.raises(DeploymentError, match="reimage failed"):
        tool.reimage_node(node)


def test_node_manager_provisioner_idempotent(share):
    sim = Simulator()
    tool = WindowsDeployTool(share, WinHpcScheduler(sim))
    node = make_node(sim)
    share.write_diskpart(MODIFIED_DISKPART_TXT_V1)
    tool.deploy_node(node)
    count = len(node.hooks.provisioners)
    tool.deploy_node(node)  # reimage
    assert len(node.hooks.provisioners) == count


def test_node_reboot_marks_unreachable(share):
    sim = Simulator()
    scheduler = WinHpcScheduler(sim)
    tool = WindowsDeployTool(share, scheduler)
    node = make_node(sim)
    share.write_diskpart(MODIFIED_DISKPART_TXT_V1)
    tool.deploy_node(node)
    node.power_on()
    sim.run()
    assert scheduler.node("enode01").state is WinNodeState.ONLINE
    node.reboot()
    sim.run()
    # windows comes back (active partition), node re-onlines
    assert node.os_name == "windows"
    assert scheduler.node("enode01").state is WinNodeState.ONLINE


def test_script_edited_on_disk_between_nodes_is_seen(share, head_os):
    """Each node reads the script as it is now, even though every node of
    a deployment shares one parse of each text."""
    sim = Simulator()
    tool = WindowsDeployTool(share, WinHpcScheduler(sim))
    first, second = make_node(sim, "enode01", 1), make_node(sim, "enode02", 2)
    first.disk, second.disk = make_v1_disk(), make_v1_disk()
    share.write_diskpart(MODIFIED_DISKPART_TXT_V1)
    assert tool.deploy_node(first).destroyed_linux
    head_os.write(DISKPART_PATH, REIMAGE_DISKPART_TXT_V2)
    report = tool.deploy_node(second)
    assert not report.cleaned_disk
    assert not report.destroyed_linux
    assert second.disk.filesystem(7).isfile("/etc/fstab")
