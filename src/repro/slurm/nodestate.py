"""SLURM node records.

The controller's node table entry: administrative state plus the per-job
core allocations.  ``available_cores`` reports 0 unless the node is UP,
which is exactly the contract the shared
:class:`~repro.pbs.scheduler.NodeIndex` free-core buckets rely on (a
DOWN/DRAINED node falls into bucket 0 and is never selected).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import SchedulerError


class SlurmNodeState(enum.Enum):
    """Administrative node state (``sinfo`` collapses allocation into
    the rendered word; see :meth:`SlurmNodeRecord.sinfo_state`)."""

    UP = "up"
    DOWN = "down"
    DRAIN = "drain"


@dataclass
class SlurmNodeRecord:
    """One compute node as ``slurmctld`` tracks it."""

    hostname: str
    cpus: int
    partition: str = "batch"
    state: SlurmNodeState = SlurmNodeState.DOWN
    #: job id -> cpus taken there
    allocations: Dict[int, int] = field(default_factory=dict)

    @property
    def cpus_in_use(self) -> int:
        return sum(self.allocations.values())

    @property
    def available_cores(self) -> int:
        """Free cpus; 0 unless UP (the NodeIndex bucket contract)."""
        if self.state is not SlurmNodeState.UP:
            return 0
        return self.cpus - self.cpus_in_use

    @property
    def online(self) -> bool:
        return self.state is SlurmNodeState.UP

    @property
    def idle(self) -> bool:
        return self.state is SlurmNodeState.UP and not self.allocations

    def allocate(self, job_id: int, cpus: int) -> None:
        if cpus > self.available_cores:
            raise SchedulerError(
                f"{self.hostname}: {cpus} cpus requested, "
                f"{self.available_cores} available"
            )
        self.allocations[job_id] = cpus

    def release(self, job_id: int) -> None:
        self.allocations.pop(job_id, None)

    def mark_up(self) -> None:
        """slurmd registered: the node joins its partition clean."""
        self.state = SlurmNodeState.UP
        self.allocations.clear()

    def mark_down(self) -> None:
        self.state = SlurmNodeState.DOWN
        self.allocations.clear()

    def mark_drain(self) -> None:
        """``scontrol update state=drain``: only an UP node drains."""
        if self.state is SlurmNodeState.UP:
            self.state = SlurmNodeState.DRAIN

    def resume(self) -> None:
        """``scontrol update state=resume``: reverse a drain."""
        if self.state is SlurmNodeState.DRAIN:
            self.state = SlurmNodeState.UP

    def sinfo_state(self) -> str:
        """The word ``sinfo`` prints for this node."""
        if self.state is SlurmNodeState.DOWN:
            return "down"
        if self.state is SlurmNodeState.DRAIN:
            return "drain"
        if not self.allocations:
            return "idle"
        return "alloc" if self.cpus_in_use >= self.cpus else "mix"
