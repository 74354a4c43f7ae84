"""Cluster assembly: head nodes + compute nodes on one LAN.

:func:`build_cluster` reproduces the paper's testbed shape: a Linux head
node (``eridani``, running OSCAR/TORQUE plus DHCP/TFTP), a Windows head
node (``winhead``, running Windows HPC 2008 R2), and N diskful compute
nodes (default 16 × 4 cores = the 64 processors of §III.A).

Head nodes are *not* dual-boot — they are always-on machines whose OS
instance exists from construction; only compute nodes cycle through the
power state machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.boot.chain import BootEnvironment
from repro.errors import ConfigurationError
from repro.hardware.nic import Nic, mac_for_index
from repro.hardware.node import ComputeNode, NodeHooks
from repro.hardware.specs import INTEL_Q8200, HardwareSpec
from repro.netsvc.network import Host, Network
from repro.oslayer.base import OSInstance
from repro.oslayer.linux import LinuxOS
from repro.oslayer.windows import WindowsOS
from repro.simkernel import Simulator
from repro.simkernel.rng import RngStreams
from repro.storage.filesystem import Filesystem
from repro.storage.partition import FsType

#: The paper's domain suffix, visible in Figures 6-8 output.
DOMAIN = "qgg.hud.ac.uk"


class HeadNode:
    """An always-on server (Linux or Windows head)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        kind: str,
        network: Network,
    ) -> None:
        self.sim = sim
        self.name = name
        self.kind = kind
        self.host: Host = network.register(name)
        # A head node's storage is a single big filesystem; the deployment
        # details of head nodes are outside the paper's scope.
        fstype = FsType.EXT3 if kind == "linux" else FsType.NTFS
        self.filesystem = Filesystem(fstype, label=f"{name}-root")
        if kind == "linux":
            self.os: OSInstance = LinuxOS(name, {"/": self.filesystem})
        elif kind == "windows":
            self.os = WindowsOS(name, {"/": self.filesystem, "/c": self.filesystem})
        else:
            raise ConfigurationError(f"unknown head-node kind {kind!r}")
        self.os.start()

    @property
    def fqdn(self) -> str:
        return f"{self.name}.{DOMAIN}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HeadNode {self.name} ({self.kind})>"


@dataclass
class Cluster:
    """Everything that exists on the machine-room floor."""

    sim: Simulator
    rng: RngStreams
    network: Network
    linux_head: HeadNode
    windows_head: HeadNode
    compute_nodes: List[ComputeNode]
    #: the observer table every compute node shares
    hooks: NodeHooks
    env: BootEnvironment = field(default_factory=BootEnvironment)

    @property
    def total_cores(self) -> int:
        return sum(node.cores for node in self.compute_nodes)

    def node(self, name: str) -> ComputeNode:
        for node in self.compute_nodes:
            if node.name == name:
                return node
        raise ConfigurationError(f"no compute node named {name!r}")

    def failed_nodes(self) -> List[ComputeNode]:
        return [n for n in self.compute_nodes if n.failed]


def node_hostname(index: int) -> str:
    """Compute-node hostname, matching the paper's ``enode01`` style."""
    return f"enode{index:02d}"


def build_cluster(
    sim: Simulator,
    num_nodes: int = 16,
    seed: int = 0,
    spec: HardwareSpec = INTEL_Q8200,
) -> Cluster:
    """Assemble the simulated machine room (nothing deployed yet).

    Compute-node disks are blank; deployment (OSCAR + Windows HPC, or one
    of the baseline systems) is a separate, measured step.
    """
    if num_nodes < 1:
        raise ConfigurationError(f"need at least one node, got {num_nodes}")
    rng = RngStreams(seed)
    network = Network(sim)
    linux_head = HeadNode(sim, "eridani", "linux", network)
    windows_head = HeadNode(sim, "winhead", "windows", network)
    env = BootEnvironment()  # DHCP/TFTP attached by deployment
    hooks = NodeHooks()

    nodes: List[ComputeNode] = []
    for i in range(1, num_nodes + 1):
        node = ComputeNode(
            sim=sim,
            name=node_hostname(i),
            spec=spec,
            nic=Nic(mac_for_index(i)),
            rng=rng.spawn(f"node{i}"),
            env=env,
            hooks=hooks,
        )
        network.register(node.name)
        nodes.append(node)

    return Cluster(
        sim=sim,
        rng=rng,
        network=network,
        linux_head=linux_head,
        windows_head=windows_head,
        compute_nodes=nodes,
        hooks=hooks,
        env=env,
    )
