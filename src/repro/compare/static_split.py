"""Baseline: the cluster statically divided into two single-OS halves.

"One way of running these applications on different operating systems is
to divide a computer cluster into smaller sub-clusters for each platform,
which would lead to a duplication and poor utilisation of the resources"
(§I).  Here that claim becomes measurable: N_w nodes run Windows HPC
permanently, the rest run OSCAR/PBS permanently, and neither side can
borrow the other's idle machines.
"""

from __future__ import annotations

from repro.compare.base import ComparableSystem, job_request
from repro.errors import ConfigurationError, SchedulerError
from repro.hardware.cluster import Cluster, build_cluster
from repro.oscar.idedisk import IDE_DISK_STOCK, parse_ide_disk
from repro.oscar.wizard import OscarWizard
from repro.simkernel import MINUTE, Simulator
from repro.storage.diskpart import ORIGINAL_DISKPART_TXT
from repro.winhpc.scheduler import WinHpcScheduler
from repro.windeploy.deploytool import WindowsDeployTool
from repro.windeploy.installshare import InstallShare


class StaticSplitSystem(ComparableSystem):
    """``windows_nodes`` machines run Windows forever, the rest Linux."""

    def __init__(
        self, num_nodes: int = 16, windows_nodes: int = 4, seed: int = 0
    ) -> None:
        super().__init__()
        if not 0 <= windows_nodes <= num_nodes:
            raise ConfigurationError(
                f"windows_nodes must be in [0, {num_nodes}], got {windows_nodes}"
            )
        self.label = f"static-split-{num_nodes - windows_nodes}L/{windows_nodes}W"
        self.windows_nodes = windows_nodes
        self.cluster: Cluster = build_cluster(
            Simulator(), num_nodes=num_nodes, seed=seed
        )
        self.winhpc = WinHpcScheduler(
            self.cluster.sim, self.cluster.windows_head.name
        )
        self._wizard = OscarWizard(self.cluster)

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def pbs(self):
        return self._wizard.installation.pbs

    @property
    def total_cores(self) -> int:
        return self.cluster.total_cores

    def deploy(self) -> None:
        nodes = self.cluster.compute_nodes
        windows_side = nodes[: self.windows_nodes]
        linux_side = nodes[self.windows_nodes:]

        # Windows half: stock HPC Pack deployment, whole disk
        share = InstallShare(self.cluster.windows_head.os)
        share.write_diskpart(ORIGINAL_DISKPART_TXT)
        tool = WindowsDeployTool(share, self.winhpc)
        for node in windows_side:
            tool.deploy_node(node)

        # Linux half: stock OSCAR
        wizard = self._wizard
        wizard.install_server()
        wizard.configure_packages(include_dualboot=False)
        wizard.build_image(parse_ide_disk(IDE_DISK_STOCK))
        # define only the Linux half as PBS clients
        for index, node in enumerate(linux_side, start=1):
            self.pbs.create_node(node.name, np=node.cores)
            wizard.installation.dhcp.reserve(node.mac, 100 + index)
        wizard.installation.steps_done.append("define_clients")
        wizard.setup_networking()
        image = wizard.installation.image
        from repro.oscar.systemimager import deploy_image_to_disk

        for node in linux_side:
            deploy_image_to_disk(image, node.disk)
            wizard.attach_pbs_mom(node)
        wizard.installation.steps_done.append("deploy_clients")

        for node in nodes:
            self.recorder.attach_node(node)
            node.power_on()
        self.recorder.attach_scheduler(self.pbs)
        self.recorder.attach_scheduler(self.winhpc)
        self.sim.run(until=self.sim.now + 15 * MINUTE)

    def submit(self, job) -> None:
        scheduler = self.pbs if job.os_name == "linux" else self.winhpc
        try:
            scheduler.submit_request(job_request(job))
        except SchedulerError:
            # e.g. a 16-core render job on a 8-core Windows partition
            self.rejected += 1
