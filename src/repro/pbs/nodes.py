"""PBS node records (what ``pbsnodes`` reports)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List


class PbsNodeState(enum.Enum):
    FREE = "free"
    JOB_EXCLUSIVE = "job-exclusive"
    DOWN = "down"
    OFFLINE = "offline"


@dataclass
class PbsNodeRecord:
    """Server-side view of one compute node."""

    hostname: str  # FQDN, e.g. enode01.eridani.qgg.hud.ac.uk
    np: int
    properties: List[str] = field(default_factory=lambda: ["all"])
    state: PbsNodeState = PbsNodeState.DOWN
    #: core index -> jobid for occupied cores
    core_jobs: Dict[int, str] = field(default_factory=dict)
    #: facts echoed into the pbsnodes `status =` line
    physmem_kb: int = 8_069_096
    totmem_kb: int = 15_881_584
    kernel: str = "2.6.18-164.el5"
    last_state_change: float = 0.0

    @property
    def available_cores(self) -> int:
        if self.state in (PbsNodeState.DOWN, PbsNodeState.OFFLINE):
            return 0
        return self.np - len(self.core_jobs)

    @property
    def busy(self) -> bool:
        return bool(self.core_jobs)

    @property
    def online(self) -> bool:
        """Up and not cordoned (what ``up_nodes()`` lists)."""
        return self.state not in (PbsNodeState.DOWN, PbsNodeState.OFFLINE)

    @property
    def idle(self) -> bool:
        return self.online and not self.core_jobs

    def allocate(self, jobid: str, count: int) -> List[int]:
        """Claim *count* cores for *jobid*; returns the core indices.

        TORQUE hands out cores from the highest index downwards (visible
        in Figure 8's ``exec_host``: ``.../3+.../2+.../1+.../0``).
        """
        free = [c for c in range(self.np - 1, -1, -1) if c not in self.core_jobs]
        if len(free) < count:
            raise ValueError(
                f"{self.hostname}: want {count} cores, {len(free)} free"
            )
        chosen = free[:count]
        for core in chosen:
            self.core_jobs[core] = jobid
        self._refresh_state()
        return chosen

    def release(self, jobid: str) -> None:
        """Free every core held by *jobid* (idempotent)."""
        for core in [c for c, j in self.core_jobs.items() if j == jobid]:
            del self.core_jobs[core]
        self._refresh_state()

    def jobs_here(self) -> List[str]:
        """Distinct jobids on this node, in core order."""
        seen: List[str] = []
        for core in sorted(self.core_jobs):
            jobid = self.core_jobs[core]
            if jobid not in seen:
                seen.append(jobid)
        return seen

    def _refresh_state(self) -> None:
        if self.state in (PbsNodeState.DOWN, PbsNodeState.OFFLINE):
            return
        self.state = (
            PbsNodeState.JOB_EXCLUSIVE
            if len(self.core_jobs) >= self.np
            else PbsNodeState.FREE
        )

    def mark_up(self, now: float) -> None:
        self.state = PbsNodeState.FREE
        self.core_jobs.clear()
        self.last_state_change = now

    def mark_down(self, now: float) -> None:
        self.state = PbsNodeState.DOWN
        self.core_jobs.clear()
        self.last_state_change = now

    def mark_offline(self, now: float) -> None:
        """Admin cordon (``pbsnodes -o``): no new work, running jobs stay."""
        self.state = PbsNodeState.OFFLINE
        self.last_state_change = now

    def clear_offline(self, now: float) -> None:
        """Lift a cordon (``pbsnodes -c``); no-op unless offline."""
        if self.state is PbsNodeState.OFFLINE:
            self.state = PbsNodeState.FREE
            self._refresh_state()
            self.last_state_change = now
