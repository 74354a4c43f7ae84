"""The OSCAR install wizard.

"OSCAR wizard supports cluster head node installation, configuration of
cluster packages and building of the worker nodes images, and complete
cluster installation" (§III.A).  The wizard's ordered steps set up the
whole Linux side on a :class:`~repro.hardware.cluster.Cluster`:

1. ``install_server``    — PBS server + base services on the head node;
2. ``configure_packages``— choose the package set (±dualboot-oscar);
3. ``build_image``       — ide.disk → :class:`NodeImage` (patch-level aware);
4. ``define_clients``    — register compute nodes (PBS node table, DHCP
   reservations);
5. ``setup_networking``  — DHCP/TFTP/PXE default boot on the head node;
6. ``deploy_clients``    — image every node's disk and wire pbs_mom.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import DeploymentError
from repro.boot.pxelinux import PXELINUX_ROM
from repro.hardware.cluster import Cluster
from repro.hardware.node import ComputeNode
from repro.netsvc.dhcp import DhcpServer
from repro.netsvc.tftp import TftpServer
from repro.oscar.idedisk import IdeDiskLayout, parse_ide_disk
from repro.oscar.imagebuilder import NodeImage, build_image
from repro.oscar.packages import OscarPackage, default_package_set
from repro.oscar.patches import Patch
from repro.oscar.systemimager import DeployReport, deploy_image_to_disk
from repro.oscar.systeminstaller import build_base_tree
from repro.oslayer.base import OSInstance, ServiceDef
from repro.pbs.server import PbsServer

_STEPS = (
    "install_server",
    "configure_packages",
    "build_image",
    "define_clients",
    "setup_networking",
    "deploy_clients",
)


@dataclass
class OscarInstallation:
    """The state the wizard builds up on the Linux head node."""

    cluster: Cluster
    pbs: PbsServer
    dhcp: DhcpServer
    tftp: TftpServer
    packages: List[OscarPackage] = field(default_factory=list)
    image: Optional[NodeImage] = None
    patched: bool = False
    applied_patches: List[Patch] = field(default_factory=list)
    steps_done: List[str] = field(default_factory=list)
    deploy_reports: Dict[str, DeployReport] = field(default_factory=dict)


class OscarWizard:
    """Drives the six installation steps in order."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        head = cluster.linux_head
        self.installation = OscarInstallation(
            cluster=cluster,
            pbs=PbsServer(cluster.sim, server_name=head.fqdn),
            dhcp=DhcpServer(next_server=head.name),
            tftp=TftpServer(head.filesystem, root="/tftpboot"),
        )
        pbs = self.installation.pbs
        #: the service that reports a node's Linux boots to the PBS server
        self._pbs_mom = ServiceDef(
            "pbs_mom",
            on_start=lambda osi: pbs.node_up(osi.hostname, osi),
            on_stop=lambda osi: pbs.node_down(osi.hostname),
        )

    # -- step machinery -----------------------------------------------------

    def _mark(self, step: str) -> None:
        expected = _STEPS[len(self.installation.steps_done)]
        if step != expected:
            raise DeploymentError(
                f"OSCAR wizard: step {step!r} out of order "
                f"(expected {expected!r})"
            )
        self.installation.steps_done.append(step)

    # -- steps ------------------------------------------------------------------

    def install_server(self) -> None:
        """Step 1: head-node services (pbs_server lives from here on)."""
        self._mark("install_server")

    def configure_packages(self, include_dualboot: bool = True) -> None:
        """Step 2: select the OSCAR package set."""
        self._mark("configure_packages")
        self.installation.packages = default_package_set(include_dualboot)

    def build_image(
        self,
        layout,
        patched: Optional[bool] = None,
        menu_lst: Optional[str] = None,
        include_dualboot_files: bool = False,
        name: str = "oscarimage",
    ) -> NodeImage:
        """Step 3: ide.disk (text or layout) → node image."""
        self._mark("build_image")
        if isinstance(layout, str):
            layout = parse_ide_disk(layout)
        assert isinstance(layout, IdeDiskLayout)
        image = build_image(
            layout,
            name=name,
            patched=(
                self.installation.patched if patched is None else patched
            ),
            packages=self.installation.packages,
            menu_lst=menu_lst,
            include_dualboot_files=include_dualboot_files,
        )
        image.trees.setdefault("/", {}).update(
            build_base_tree(self.installation.packages)
        )
        self.installation.image = image
        return image

    def define_clients(self) -> None:
        """Step 4: PBS node table + DHCP reservations for every node."""
        self._mark("define_clients")
        pbs = self.installation.pbs
        for index, node in enumerate(self.cluster.compute_nodes, start=1):
            pbs.create_node(node.name, np=node.cores)
            self.installation.dhcp.reserve(node.mac, 100 + index)

    def setup_networking(self) -> None:
        """Step 5: stand up DHCP/TFTP with PXELINUX defaulting to local boot."""
        self._mark("setup_networking")
        tftp = self.installation.tftp
        tftp.put("/pxelinux.0", PXELINUX_ROM)
        tftp.put(
            "/pxelinux.cfg/default",
            "DEFAULT local\nLABEL local\nLOCALBOOT 0\n",
        )
        self.installation.dhcp.default_bootfile = "/pxelinux.0"
        self.cluster.env.dhcp = self.installation.dhcp
        self.cluster.env.tftp = tftp

    def deploy_clients(self) -> Dict[str, DeployReport]:
        """Step 6: image every node disk and attach the pbs_mom service."""
        self._mark("deploy_clients")
        image = self.installation.image
        if image is None:
            raise DeploymentError("no image built")
        for node in self.cluster.compute_nodes:
            self.installation.deploy_reports[node.name] = deploy_image_to_disk(
                image, node.disk
            )
            self.attach_pbs_mom(node)
        return self.installation.deploy_reports

    # -- shared wiring -----------------------------------------------------------

    def attach_pbs_mom(self, node: ComputeNode) -> None:
        """Idempotently register the provisioner that reports Linux boots
        to the PBS server (node joins the pool / leaves it on shutdown)."""
        node.hooks.register("provisioners", self._provision_pbs_mom)

    def _provision_pbs_mom(self, node: ComputeNode, os_instance: OSInstance) -> None:
        if os_instance.kind == "linux":
            os_instance.add_service(self._pbs_mom)
