"""SLURM node records: the controller's node table entries."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sched.records import NodeRecord


class SlurmNodeState(enum.Enum):
    """Administrative node state (allocation is tracked separately, in
    :attr:`SlurmNodeRecord.allocations`)."""

    UP = "up"
    DOWN = "down"
    DRAIN = "drain"


@dataclass
class SlurmNodeRecord(NodeRecord):
    """One compute node as ``slurmctld`` tracks it."""

    UP = SlurmNodeState.UP
    DOWN = SlurmNodeState.DOWN
    CORDONED = SlurmNodeState.DRAIN

    state: SlurmNodeState = SlurmNodeState.DOWN
