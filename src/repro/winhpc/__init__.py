"""A Windows HPC Server 2008 R2-like scheduler.

The Windows half of the hybrid cluster.  Where the PBS side is driven by
parsing command output, this side is read through its scheduler's API —
matching the paper: "Microsoft provides a SDK for programs to fetch the
data and send the tasks, e.g. get the queue state and nodes state"
(§III.B.3).

Scheduling is FIFO with two allocation units, mirroring HPC Pack's
``UnitType``: ``Core`` jobs take cores anywhere; ``Node`` jobs take whole
free machines (the OS-switch jobs use ``Node``, the analogue of
``nodes=1:ppn=4``).
"""

from repro.winhpc.job import WinHpcJob, WinJobState, WinJobUnit
from repro.winhpc.nodestate import WinNodeRecord, WinNodeState
from repro.winhpc.scheduler import WinHpcScheduler

__all__ = [
    "WinHpcJob",
    "WinHpcScheduler",
    "WinJobState",
    "WinJobUnit",
    "WinNodeRecord",
    "WinNodeState",
]
