"""Windows HPC job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sched.records import BatchJob


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


@dataclass(kw_only=True)
class WinHpcJob(BatchJob):
    """One job as tracked by the head node: ``amount`` cores (``Core``
    unit) or whole nodes (``Node`` unit)."""

    state: WinJobState = WinJobState.QUEUED
    priority: int = PRIORITY_NORMAL
    unit: WinJobUnit
    amount: int

    def cores_submitted(self) -> int:
        """Core demand as known at submission time: the requested amount
        (a ``Node``-unit job learns its core count when it starts)."""
        return self.amount
