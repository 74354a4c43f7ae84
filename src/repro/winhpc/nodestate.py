"""Windows HPC node records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict


class WinNodeState(enum.Enum):
    ONLINE = "Online"
    OFFLINE = "Offline"
    DRAINING = "Draining"
    UNREACHABLE = "Unreachable"


@dataclass
class WinNodeRecord:
    """Head-node view of one compute node."""

    hostname: str
    cores: int
    state: WinNodeState = WinNodeState.UNREACHABLE
    template: str = "Default ComputeNode Template"
    #: job_id -> cores allocated on this node
    allocations: Dict[int, int] = field(default_factory=dict)
    #: running total of ``allocations`` values, kept by the mutators below
    #: (placement reads ``available_cores`` for every candidate node)
    _cores_in_use: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._cores_in_use = sum(self.allocations.values())

    @property
    def cores_in_use(self) -> int:
        return self._cores_in_use

    @property
    def available_cores(self) -> int:
        if self.state is not WinNodeState.ONLINE:
            return 0
        return self.cores - self.cores_in_use

    @property
    def online(self) -> bool:
        return self.state is WinNodeState.ONLINE

    @property
    def idle(self) -> bool:
        return self.state is WinNodeState.ONLINE and not self.allocations

    def allocate(self, job_id: int, count: int) -> None:
        if count > self.available_cores:
            raise ValueError(
                f"{self.hostname}: want {count} cores, "
                f"{self.available_cores} available"
            )
        self.allocations[job_id] = self.allocations.get(job_id, 0) + count
        self._cores_in_use += count

    def release(self, job_id: int) -> None:
        self._cores_in_use -= self.allocations.pop(job_id, 0)

    def mark_online(self) -> None:
        self.state = WinNodeState.ONLINE
        self.allocations.clear()
        self._cores_in_use = 0

    def mark_unreachable(self) -> None:
        self.state = WinNodeState.UNREACHABLE
        self.allocations.clear()
        self._cores_in_use = 0

    def mark_draining(self) -> None:
        """Admin cordon: no new work, running allocations stay."""
        if self.state is WinNodeState.ONLINE:
            self.state = WinNodeState.DRAINING

    def resume_online(self) -> None:
        """Lift a cordon; no-op unless draining."""
        if self.state is WinNodeState.DRAINING:
            self.state = WinNodeState.ONLINE
