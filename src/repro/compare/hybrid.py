"""The system under study, wrapped for comparison."""

from __future__ import annotations

from typing import Optional

from repro.compare.base import ComparableSystem, job_request
from repro.core.config import MiddlewareConfig
from repro.core.middleware import DualBootOscar, build_hybrid_cluster
from repro.core.policy import SwitchPolicy
from repro.errors import SchedulerError
from repro.simkernel import Simulator
from repro.workloads.jobs import WorkloadJob


class HybridSystem(ComparableSystem):
    """dualboot-oscar (v1 or v2) on the standard cluster."""

    def __init__(
        self,
        num_nodes: int = 16,
        seed: int = 0,
        version: Optional[int] = None,
        config: Optional[MiddlewareConfig] = None,
        policy: Optional[SwitchPolicy] = None,
        label_suffix: str = "",
    ) -> None:
        super().__init__()
        self.middleware: DualBootOscar = build_hybrid_cluster(
            num_nodes=num_nodes, seed=seed, version=version,
            config=config, policy=policy,
        )
        self.label = f"hybrid-v{self.middleware.version}{label_suffix}"
        # share the recorder so the runner sees everything
        self.middleware.recorder = self.recorder

    @property
    def sim(self) -> Simulator:
        return self.middleware.sim

    @property
    def total_cores(self) -> int:
        return self.middleware.cluster.total_cores

    def deploy(self) -> None:
        self.middleware.deploy()
        self.middleware.wait_for_nodes()

    def finalize(self) -> None:
        # delegate so the energy meter closes its integrals too
        self.middleware.finalize()

    def submit(self, job: WorkloadJob) -> None:
        try:
            self.middleware.submit(job.os_name, job_request(job))
        except SchedulerError:
            self.rejected += 1
