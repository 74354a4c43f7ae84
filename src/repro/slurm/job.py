"""SLURM job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sched.records import BatchJob


class SlurmJobState(enum.Enum):
    """Job states with their ``squeue`` short codes."""

    PENDING = "PD"
    RUNNING = "R"
    COMPLETED = "CD"
    FAILED = "F"
    CANCELLED = "CA"


#: Default ``--priority`` (sbatch accepts 0..2**32-1; this model keeps a
#: small positive default so explicit priorities sort either way).
PRIORITY_DEFAULT = 100


@dataclass(kw_only=True)
class SlurmJob(BatchJob):
    """One job as ``slurmctld`` tracks it.

    The ``nodes``/``ppn`` shape is fixed at submission (the controller
    shapes flat requests), which is what lets the shared
    :class:`~repro.pbs.scheduler.NodeIndex` place SLURM jobs unchanged.
    """

    state: SlurmJobState = SlurmJobState.PENDING
    priority: int = PRIORITY_DEFAULT
    nodes: int
    ppn: int

    @property
    def total_cores(self) -> int:
        return self.nodes * self.ppn

    def cores_submitted(self) -> int:
        """Core demand as known at submission time (shape is fixed)."""
        return self.total_cores
