"""The HPC Pack SDK facade.

The paper's Windows-side tooling talks to the head node through
Microsoft's scheduler SDK rather than by scraping command output
(§III.B.3).  This facade exposes the part of that API the detector's
Windows half uses — connect to a head node, list jobs by state, read
the largest node — so it reads like the original C# tool.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SchedulerError
from repro.winhpc.job import WinHpcJob, WinJobState
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
    def scheduler(self) -> WinHpcScheduler:
        """The connected head node's scheduler."""
        if self._scheduler is None:
            raise SchedulerError("SDK connection not established")
        return self._scheduler

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

    def max_node_cores(self, default: int = 1) -> int:
        """Largest per-node core count, or *default* with no nodes.

        The detector needs this to convert NODE-unit requests into CPU
        counts.
        """
        return self.scheduler.max_node_cores or default
