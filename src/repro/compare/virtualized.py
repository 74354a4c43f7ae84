"""Baseline: x86 virtualisation — when the hardware allows it.

§II: "the virtualisation has become applicable ... since Intel (VT-x) and
AMD (AMD-V) have started to support hardware-assisted virtualisation ...
However, hardware support was not provided for their entire range of
products" — and Eridani's Q8200 nodes have none, which is the paper's
reason to exist.  On VT hardware this baseline splits every node's cores
between a Linux VM and a Windows VM (both permanently online, no reboot
cost) and charges a virtualisation runtime overhead.
"""

from __future__ import annotations

from repro.compare.base import ComparableSystem, job_request
from repro.errors import DeploymentError, SchedulerError
from repro.hardware.cluster import Cluster, build_cluster
from repro.hardware.specs import HardwareSpec, VT_CAPABLE_XEON
from repro.pbs.server import PbsServer
from repro.simkernel import Simulator
from repro.winhpc.scheduler import WinHpcScheduler
from repro.workloads.jobs import WorkloadJob

#: Typical full-virtualisation slowdown on 2008-era hardware.
DEFAULT_OVERHEAD = 1.15


class VirtualizedSystem(ComparableSystem):
    """Per-node Linux VM + Windows VM with a static core split."""

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        spec: HardwareSpec = VT_CAPABLE_XEON,
        linux_core_fraction: float = 0.5,
        overhead: float = DEFAULT_OVERHEAD,
    ) -> None:
        super().__init__()
        if overhead < 1.0:
            raise DeploymentError("virtualisation overhead cannot be < 1.0")
        self.label = "virtualized"
        self.spec = spec
        self.overhead = overhead
        self.linux_core_fraction = linux_core_fraction
        self.cluster: Cluster = build_cluster(
            Simulator(), num_nodes=num_nodes, seed=seed, spec=spec
        )
        self.pbs = PbsServer(self.cluster.sim)
        self.winhpc = WinHpcScheduler(
            self.cluster.sim, self.cluster.windows_head.name
        )

    @property
    def sim(self) -> Simulator:
        return self.cluster.sim

    @property
    def total_cores(self) -> int:
        return self.cluster.total_cores

    def deploy(self) -> None:
        if not self.spec.supports_virtualization:
            raise DeploymentError(
                f"{self.spec.model} has no hardware virtualisation support "
                "(VT-x/AMD-V) — this baseline cannot be deployed on it"
            )
        for node in self.cluster.compute_nodes:
            linux_cores = max(1, int(node.cores * self.linux_core_fraction))
            windows_cores = max(1, node.cores - linux_cores)
            self.pbs.create_node(node.name, np=linux_cores)
            self.pbs.node_up(node.name)
            self.winhpc.add_node(node.name, cores=windows_cores)
            self.winhpc.node_online(node.name)
        self.recorder.attach_scheduler(self.pbs)
        self.recorder.attach_scheduler(self.winhpc)

    def submit(self, job: WorkloadJob) -> None:
        per_vm = max(1, int(self.spec.cores * self.linux_core_fraction))
        scheduler = self.pbs if job.os_name == "linux" else self.winhpc
        request = job_request(
            job, runtime_s=job.runtime_s * self.overhead, cores_per_node=per_vm
        )
        try:
            scheduler.submit_request(request)
        except SchedulerError:
            self.rejected += 1
