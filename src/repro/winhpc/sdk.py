"""The HPC Pack SDK facade.

The paper's Windows-side tooling talks to the head node through
Microsoft's scheduler SDK rather than by scraping command output
(§III.B.3).  This facade exposes the same *shape* of API — connect to a
head node, list jobs by state, list nodes, submit — so the
dualboot-oscar detector's Windows half reads like the original C# tool.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SchedulerError
from repro.winhpc.job import WinHpcJob, WinJobSpec, WinJobState, WinJobUnit
from repro.winhpc.nodestate import WinNodeRecord
from repro.winhpc.scheduler import WinHpcScheduler


class HpcSchedulerConnection:
    """``Microsoft.Hpc.Scheduler.Scheduler`` in miniature.

    >>> conn = HpcSchedulerConnection()
    >>> conn.connect(scheduler)           # doctest: +SKIP
    >>> conn.get_job_list(WinJobState.QUEUED)   # doctest: +SKIP
    """

    def __init__(self) -> None:
        self._scheduler: Optional[WinHpcScheduler] = None

    def connect(self, scheduler: WinHpcScheduler) -> None:
        """Attach to a head node (the SDK's ``Connect(headNodeName)``)."""
        self._scheduler = scheduler

    @property
    def connected(self) -> bool:
        return self._scheduler is not None

    @property
    def scheduler(self) -> WinHpcScheduler:
        """The connected head node's scheduler."""
        if self._scheduler is None:
            raise SchedulerError("SDK connection not established")
        return self._scheduler

    # -- job API ----------------------------------------------------------------

    def create_job(
        self,
        name: str,
        unit: WinJobUnit = WinJobUnit.CORE,
        amount: int = 1,
        runtime_s: Optional[float] = None,
        script: Optional[str] = None,
        tag: str = "",
    ) -> WinJobSpec:
        """Build a job spec (the SDK's ``CreateJob`` + property setting)."""
        return WinJobSpec(
            name=name, unit=unit, amount=amount,
            runtime_s=runtime_s, script=script, tag=tag,
        )

    def submit_job(self, spec: WinJobSpec, owner: str = "HPCUser") -> WinHpcJob:
        return self.scheduler.submit(spec, owner=owner)

    def cancel_job(self, job_id: int) -> None:
        self.scheduler.cancel(job_id)

    def get_job_list(self, state: Optional[WinJobState] = None) -> List[WinHpcJob]:
        """Jobs, optionally filtered by state; queued jobs in queue order."""
        scheduler = self.scheduler
        if state is WinJobState.QUEUED:
            return scheduler.queued_jobs()
        if state is WinJobState.RUNNING:
            # Served from the scheduler's running bucket (already id-sorted)
            # instead of scanning every job ever submitted.
            return scheduler.running_jobs()
        jobs = sorted(scheduler.jobs.values(), key=lambda j: j.job_id)
        if state is None:
            return jobs
        return [j for j in jobs if j.state is state]

    # -- node API ----------------------------------------------------------------

    def get_node_list(self) -> List[WinNodeRecord]:
        return [r for _, r in sorted(self.scheduler.nodes.items())]

    def max_node_cores(self, default: int = 1) -> int:
        """Largest per-node core count, or *default* with no nodes.

        The detector needs this to convert NODE-unit requests into CPU
        counts.
        """
        return self.scheduler.max_node_cores or default

    def get_counters(self) -> dict:
        """Cluster-wide counters (the SDK's ``ISchedulerCounters``)."""
        scheduler = self.scheduler
        return {
            "total_cores": sum(r.cores for r in scheduler.nodes.values()),
            "idle_cores": scheduler.free_cores(),
            "online_nodes": scheduler.online_node_count(),
            "queued_jobs": scheduler.queued_count(),
            "running_jobs": scheduler.running_count(),
        }
