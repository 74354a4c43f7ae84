"""The Windows HPC deployment service: deploy and reimage compute nodes.

Every flow reads ``diskpart.txt`` from the InstallShare (whatever is
there *right now* — stock, Figure 10 or Figure 15) and applies it to the
node's disk, then installs Windows.  The collateral effects are computed
by diffing disk state, not scripted:

* a ``clean``-based script destroys the Linux partitions and the MBR
  (v1: "each time during reinstallation of Windows, Linux needs to be
  reinstalled as well", §III.C.2);
* the Windows installer always rewrites the MBR (fatal for v1's GRUB,
  irrelevant for v2's PXE);
* the Figure-15 script touches only partition 1, so Linux and GRUB
  survive (v2: "Windows partition and OSCAR partition can be individually
  reimaged without corrupting each other", §IV.B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import DeploymentError, StorageError
from repro.boot.chain import LINUX_ROOT_MARKER
from repro.hardware.node import ComputeNode
from repro.metrics.effort import AdminEffortLedger
from repro.oslayer.base import OSInstance, ServiceDef
from repro.oslayer.windows import install_windows
from repro.storage.disk import Disk
from repro.storage.diskpart import DiskpartInterpreter
from repro.storage.partition import FsType
from repro.windeploy.installshare import InstallShare


@dataclass
class WindowsDeployReport:
    """Effects of one deploy/reimage."""

    node: str
    cleaned_disk: bool = False
    destroyed_linux: bool = False
    mbr_was_grub: bool = False
    mbr_rewritten: bool = True
    system_partition: int = 1


def _has_linux(disk: Disk) -> bool:
    for part in disk.partitions:
        fs = part.filesystem
        if fs is not None and fs.fstype is FsType.EXT3 and fs.isfile(LINUX_ROOT_MARKER):
            return True
    return False


class WindowsDeployTool:
    """Deployment service bound to one head node + scheduler."""

    def __init__(
        self, share: InstallShare, scheduler: Any
    ) -> None:
        self.share = share
        self.scheduler = scheduler
        #: the service that reports a node's Windows boots to the scheduler
        self._node_manager = ServiceDef(
            "hpc_node_manager",
            on_start=lambda osi: scheduler.node_online(osi.hostname, osi),
            on_stop=lambda osi: scheduler.node_unreachable(osi.hostname),
        )

    # -- flows ----------------------------------------------------------------

    def deploy_node(
        self,
        node: ComputeNode,
        ledger: Optional[AdminEffortLedger] = None,
    ) -> WindowsDeployReport:
        """Apply the current diskpart.txt and install Windows on *node*.

        Registers the node with the Windows HPC scheduler (if new) and
        attaches the node-manager provisioner so Windows boots report in.
        """
        report = WindowsDeployReport(node=node.name)
        disk = node.disk
        report.mbr_was_grub = (
            disk.mbr.boot_code is not None and disk.mbr.boot_code.is_grub
        )
        had_linux = _has_linux(disk)

        script = self.share.read_diskpart()
        result = DiskpartInterpreter(disk).run(script)
        report.cleaned_disk = result.cleaned
        if not result.formatted:
            raise DeploymentError(
                f"{node.name}: diskpart.txt formatted no partition"
            )
        report.system_partition = result.formatted[-1]
        install_windows(disk, system_partition=report.system_partition)
        report.destroyed_linux = had_linux and not _has_linux(disk)

        if ledger is not None and report.destroyed_linux:
            ledger.record(
                "reinstall-other-os",
                "Windows deployment wiped the Linux installation "
                "(diskpart clean)",
                node=node.name,
            )

        if node.name not in self.scheduler.nodes:
            self.scheduler.add_node(node.name, cores=node.cores)
        self.attach_node_manager(node)
        return report

    def reimage_node(
        self,
        node: ComputeNode,
        ledger: Optional[AdminEffortLedger] = None,
    ) -> WindowsDeployReport:
        """Reimage = deploy with whatever script the share currently holds.

        (The v1/v2 difference *is* the script: Figure 10 wipes, Figure 15
        reformats partition 1 only.)
        """
        try:
            return self.deploy_node(node, ledger=ledger)
        except StorageError as exc:
            raise DeploymentError(f"{node.name}: reimage failed: {exc}") from exc

    # -- scheduler wiring ----------------------------------------------------

    def attach_node_manager(self, node: ComputeNode) -> None:
        """Idempotently wire Windows boots into the HPC scheduler."""
        node.hooks.register("provisioners", self._provision_node_manager)

    def _provision_node_manager(
        self, node: ComputeNode, os_instance: OSInstance
    ) -> None:
        if os_instance.kind == "windows":
            os_instance.add_service(self._node_manager)
