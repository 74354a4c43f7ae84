"""Windows HPC node records."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sched.records import NodeRecord


class WinNodeState(enum.Enum):
    ONLINE = "Online"
    OFFLINE = "Offline"
    DRAINING = "Draining"
    UNREACHABLE = "Unreachable"


@dataclass
class WinNodeRecord(NodeRecord):
    """Head-node view of one compute node."""

    UP = WinNodeState.ONLINE
    DOWN = WinNodeState.UNREACHABLE
    CORDONED = WinNodeState.DRAINING

    state: WinNodeState = WinNodeState.UNREACHABLE
