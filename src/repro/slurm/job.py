"""SLURM job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional


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


@dataclass
class SlurmJobSpec:
    """What an ``sbatch`` submission provides.

    ``nodes=0`` means "shape the flat ``cpus`` request onto whole nodes
    yourself" (what ``-n`` without ``-N`` does); a non-zero ``nodes``
    with ``ppn=0`` claims whole nodes.
    """

    name: str = "wrap"
    nodes: int = 0
    ppn: int = 0
    cpus: int = 1
    partition: str = "batch"
    time_limit_s: Optional[float] = None
    runtime_s: Optional[float] = None
    script: Optional[str] = None
    priority: int = PRIORITY_DEFAULT
    rerunnable: bool = True
    tag: str = ""


@dataclass
class SlurmJob:
    """One job as ``slurmctld`` tracks it.

    The ``nodes``/``ppn`` shape is fixed at submission (the controller
    shapes flat requests), which is what lets the shared
    :class:`~repro.pbs.scheduler.NodeIndex` place SLURM jobs unchanged.
    """

    job_id: int
    name: str
    owner: str
    nodes: int
    ppn: int
    partition: str
    submit_time: float
    state: SlurmJobState = SlurmJobState.PENDING
    runtime_s: Optional[float] = None
    time_limit_s: Optional[float] = None
    script: Optional[str] = None
    priority: int = PRIORITY_DEFAULT
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: hostname -> cpus taken there
    allocation: Dict[str, int] = field(default_factory=dict)
    tag: str = ""
    rerunnable: bool = True
    #: node-failure recovery bookkeeping (see ``repro.sched.lifecycle``)
    restarts: int = 0
    checkpointed_s: float = 0.0
    lost_work_s: float = 0.0
    interrupted_at: Optional[float] = None

    @property
    def total_cores(self) -> int:
        return self.nodes * self.ppn

    @property
    def wait_time_s(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    # -- uniform personality surface (repro.sched.protocol) ------------------

    @property
    def key(self) -> str:
        """Scheduler-neutral job id (integer ids render with ``str``)."""
        return str(self.job_id)

    @property
    def submitted_at(self) -> float:
        return self.submit_time

    def cores_submitted(self) -> int:
        """Core demand as known at submission time (shape is fixed)."""
        return self.total_cores

    def cores_running(self) -> int:
        return sum(self.allocation.values())

    def allocation_by_host(self) -> Dict[str, int]:
        """Hostname → allocated cpu count, placement order."""
        return dict(self.allocation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SlurmJob {self.job_id} {self.name!r} {self.state.value}>"
