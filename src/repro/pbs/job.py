"""PBS job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.sched.records import BatchJob


class JobState(enum.Enum):
    """TORQUE job states (the subset the paper's tooling sees)."""

    QUEUED = "Q"
    RUNNING = "R"
    COMPLETED = "C"


@dataclass(kw_only=True)
class PbsJob(BatchJob):
    """One batch job in a ``nodes:ppn`` shape.

    ``exec_slots`` holds ``(hostname, core)`` pairs exactly as
    ``exec_host`` renders them.
    """

    state: JobState = JobState.QUEUED
    nodes: int
    ppn: int
    queue: str = "default"
    walltime_s: Optional[float] = None
    join_oe: bool = False
    output_path: Optional[str] = None
    variables: Dict[str, str] = field(default_factory=dict)
    exit_status: Optional[int] = None
    exec_slots: List[Tuple[str, int]] = field(default_factory=list)
    walltime_used_s: float = 0.0

    @property
    def total_cores(self) -> int:
        return self.nodes * self.ppn

    @cached_property
    def seq_number(self) -> int:
        """Numeric part of the job id (``1185.eridani...`` → 1185).

        Cached: the id never changes, and the server sorts by it on
        every ``running_jobs()`` call.
        """
        return int(self.job_id.split(".", 1)[0])

    def exec_host_string(self) -> str:
        """Figure-8 style: ``node16.dom/3+node16.dom/2+...``."""
        return "+".join(f"{host}/{core}" for host, core in self.exec_slots)

    def cores_submitted(self) -> int:
        """Core demand as known at submission time."""
        return self.total_cores
