"""PBS node records (what ``pbsnodes`` reports)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.sched.records import NodeRecord


class PbsNodeState(enum.Enum):
    FREE = "free"
    JOB_EXCLUSIVE = "job-exclusive"
    DOWN = "down"
    OFFLINE = "offline"


@dataclass
class PbsNodeRecord(NodeRecord):
    """Server-side view of one compute node; ``hostname`` is the FQDN,
    e.g. ``enode01.eridani.qgg.hud.ac.uk``."""

    UP = PbsNodeState.FREE
    DOWN = PbsNodeState.DOWN
    CORDONED = PbsNodeState.OFFLINE

    state: PbsNodeState = PbsNodeState.DOWN
    properties: List[str] = field(default_factory=lambda: ["all"])
    #: core index -> jobid for occupied cores
    core_jobs: Dict[int, str] = field(default_factory=dict)
    #: facts echoed into the pbsnodes `status =` line
    physmem_kb: int = 8_069_096
    totmem_kb: int = 15_881_584
    kernel: str = "2.6.18-164.el5"

    @property
    def pbs_state(self) -> PbsNodeState:
        """The state ``pbsnodes`` prints: a full free node is job-exclusive."""
        if self.state is PbsNodeState.FREE and self.cores_in_use >= self.cores:
            return PbsNodeState.JOB_EXCLUSIVE
        return self.state

    def allocate(self, job_id: str, count: int) -> List[int]:  # type: ignore[override]
        """Claim *count* cores for *job_id*; returns the core indices.

        TORQUE hands out cores from the highest index downwards (visible
        in Figure 8's ``exec_host``: ``.../3+.../2+.../1+.../0``).
        """
        super().allocate(job_id, count)
        free = [c for c in range(self.cores - 1, -1, -1) if c not in self.core_jobs]
        chosen = free[:count]
        for core in chosen:
            self.core_jobs[core] = job_id
        return chosen

    def release(self, job_id: str) -> None:
        super().release(job_id)
        for core in [c for c, j in self.core_jobs.items() if j == job_id]:
            del self.core_jobs[core]

    def jobs_here(self) -> List[str]:
        """Distinct jobids on this node, in core order."""
        return list(dict.fromkeys(
            self.core_jobs[core] for core in sorted(self.core_jobs)
        ))

    def _reset(self, state: PbsNodeState, now: float) -> None:
        super()._reset(state, now)
        self.core_jobs.clear()
