"""Windows HPC job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


class WinJobState(enum.Enum):
    """HPC Pack job states (the subset the middleware observes)."""

    CONFIGURING = "Configuring"
    QUEUED = "Queued"
    RUNNING = "Running"
    FINISHED = "Finished"
    FAILED = "Failed"
    CANCELED = "Canceled"


class WinJobUnit(enum.Enum):
    """Allocation unit (HPC Pack ``JobUnitType``)."""

    CORE = "Core"
    NODE = "Node"


#: HPC Pack priority bands (``JobPriority``); larger runs sooner.
PRIORITY_LOWEST = 0
PRIORITY_NORMAL = 2000
PRIORITY_HIGHEST = 4000


@dataclass
class WinJobSpec:
    """What a submission needs to provide."""

    name: str = "Job"
    unit: WinJobUnit = WinJobUnit.CORE
    amount: int = 1  # cores (CORE unit) or whole nodes (NODE unit)
    runtime_s: Optional[float] = None
    script: Optional[str] = None  # .bat text run on the first allocated node
    tag: str = ""
    priority: int = PRIORITY_NORMAL
    rerunnable: bool = True


@dataclass
class WinHpcJob:
    """One job as tracked by the head node."""

    job_id: int
    name: str
    owner: str
    unit: WinJobUnit
    amount: int
    submit_time: float
    state: WinJobState = WinJobState.QUEUED
    runtime_s: Optional[float] = None
    script: Optional[str] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    priority: int = PRIORITY_NORMAL
    #: hostname -> cores taken there
    allocation: Dict[str, int] = field(default_factory=dict)
    tag: str = ""
    rerunnable: bool = True
    #: node-failure recovery bookkeeping (see ``repro.sched.lifecycle``)
    restarts: int = 0
    checkpointed_s: float = 0.0
    lost_work_s: float = 0.0
    interrupted_at: Optional[float] = None

    @property
    def wait_time_s(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    def total_allocated_cores(self) -> int:
        return sum(self.allocation.values())

    # -- uniform personality surface (repro.sched.protocol) ------------------

    @property
    def key(self) -> str:
        """Scheduler-neutral job id (integer ids render with ``str``)."""
        return str(self.job_id)

    @property
    def submitted_at(self) -> float:
        return self.submit_time

    def cores_submitted(self) -> int:
        """Core demand as known at submission time (allocation is empty
        then, so this falls back to the requested amount)."""
        return self.total_allocated_cores() or self.amount

    def cores_running(self) -> int:
        """Cores actually allocated (NODE-unit jobs learn this late)."""
        return self.total_allocated_cores()

    def allocation_by_host(self) -> Dict[str, int]:
        """Hostname → allocated core count, placement order."""
        return dict(self.allocation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WinHpcJob {self.job_id} {self.name!r} {self.state.value}>"
