"""A SLURM scheduler personality.

The third batch domain behind the :mod:`repro.sched` seam: a
``slurmctld``-like controller with priority ordering and EASY backfill
(reusing the PBS :class:`~repro.pbs.scheduler.NodeIndex` free-core
buckets), ``squeue`` text rendering and a text-parsing queue-state
detector — usable as donor or receiver in any dual-boot pairing
(experiment E15 runs PBS↔SLURM).
"""

from repro.slurm.controller import SlurmController
from repro.slurm.detector import SlurmDetector
from repro.slurm.job import SlurmJob, SlurmJobState
from repro.slurm.nodestate import SlurmNodeRecord, SlurmNodeState

__all__ = [
    "SlurmController",
    "SlurmDetector",
    "SlurmJob",
    "SlurmJobState",
    "SlurmNodeRecord",
    "SlurmNodeState",
]
