"""PBS job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple


class JobState(enum.Enum):
    """TORQUE job states (the subset the paper's tooling sees)."""

    QUEUED = "Q"
    RUNNING = "R"
    EXITING = "E"
    COMPLETED = "C"
    HELD = "H"


@dataclass
class PbsJob:
    """One batch job.

    ``payload`` describes what "running" means: either a plain duration
    (``runtime_s``) or a script executed on the first allocated node's OS
    (the OS-switch jobs).  ``exec_slots`` holds ``(hostname, core)`` pairs
    exactly as ``exec_host`` renders them.
    """

    jobid: str
    name: str
    owner: str
    nodes: int
    ppn: int
    queue: str = "default"
    qtime: float = 0.0
    state: JobState = JobState.QUEUED
    runtime_s: Optional[float] = None
    walltime_s: Optional[float] = None
    script: Optional[str] = None
    rerunnable: bool = True
    join_oe: bool = False
    output_path: Optional[str] = None
    priority: int = 0
    variables: Dict[str, str] = field(default_factory=dict)
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    exit_status: Optional[int] = None
    exec_slots: List[Tuple[str, int]] = field(default_factory=list)
    #: node-failure recovery bookkeeping (see ``PbsServer.fence_node``)
    restarts: int = 0
    checkpointed_s: float = 0.0
    lost_work_s: float = 0.0
    walltime_used_s: float = 0.0
    interrupted_at: Optional[float] = None
    #: optional callback fired on completion (metrics, chaining)
    on_complete: Optional[Callable[["PbsJob"], None]] = None
    #: free-form tag used by the middleware ("os-switch") and workloads
    tag: str = ""

    @property
    def total_cores(self) -> int:
        return self.nodes * self.ppn

    @cached_property
    def seq_number(self) -> int:
        """Numeric part of the job id (``1185.eridani...`` → 1185).

        Cached: the id never changes, and the server sorts by it on
        every ``running_jobs()`` call.
        """
        return int(self.jobid.split(".", 1)[0])

    @property
    def wait_time_s(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.qtime

    @property
    def turnaround_s(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.qtime

    def exec_host_string(self) -> str:
        """Figure-8 style: ``node16.dom/3+node16.dom/2+...``."""
        return "+".join(f"{host}/{core}" for host, core in self.exec_slots)

    # -- uniform personality surface (repro.sched.protocol) ------------------

    @property
    def key(self) -> str:
        """Scheduler-neutral job id (PBS ids are already strings)."""
        return self.jobid

    @property
    def submitted_at(self) -> float:
        return self.qtime

    def cores_submitted(self) -> int:
        """Core demand as known at submission time."""
        return self.total_cores

    def cores_running(self) -> int:
        """Cores actually allocated (PBS shapes are exact)."""
        return self.total_cores

    def allocation_by_host(self) -> Dict[str, int]:
        """Short hostname → allocated core count, placement order."""
        cores: Dict[str, int] = {}
        for fqdn, _ in self.exec_slots:
            host = fqdn.split(".")[0]
            cores[host] = cores.get(host, 0) + 1
        return cores

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PbsJob {self.jobid} {self.name!r} {self.state.value}>"
