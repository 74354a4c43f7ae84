"""The interface every compared system implements."""

from __future__ import annotations

import abc
import math
from typing import Optional, Tuple

from repro.metrics.recorder import ClusterRecorder
from repro.sched import JobRequest
from repro.simkernel import Simulator
from repro.workloads.jobs import WorkloadJob


def cores_to_pbs_shape(cores: int, cores_per_node: int = 4) -> Tuple[int, int]:
    """Map a flat core request onto PBS ``nodes=N:ppn=M``.

    ≤ one node: a single node with exactly that many cores; larger: whole
    nodes (the campus convention for parallel codes).
    """
    if cores <= cores_per_node:
        return 1, cores
    return math.ceil(cores / cores_per_node), cores_per_node


def job_request(
    job: WorkloadJob,
    runtime_s: Optional[float] = None,
    cores_per_node: int = 4,
) -> JobRequest:
    """The scheduler-neutral request for *job*.

    A Linux job asks PBS for ``nodes=N:ppn=M`` (:func:`cores_to_pbs_shape`
    over *cores_per_node*); a Windows job asks for a flat core count,
    which WinHPC allocates core by core.  *runtime_s* overrides the job's
    own runtime (a baseline's overhead).
    """
    runtime = job.runtime_s if runtime_s is None else runtime_s
    if job.os_name == "linux":
        nodes, ppn = cores_to_pbs_shape(job.cores, cores_per_node)
        return JobRequest(
            name=job.name, nodes=nodes, ppn=ppn, runtime_s=runtime, tag=job.tag
        )
    return JobRequest(
        name=job.name, cores=job.cores, runtime_s=runtime, tag=job.tag
    )


class ComparableSystem(abc.ABC):
    """A deployable cluster system that accepts workload jobs.

    Lifecycle: construct → :meth:`deploy` (advances the sim as needed to
    become operational) → :meth:`submit` at arrival times (driven by the
    runner) → :meth:`finalize` before reading the recorder.
    """

    label: str = "abstract"

    def __init__(self) -> None:
        self.recorder = ClusterRecorder()
        self.rejected = 0

    @property
    @abc.abstractmethod
    def sim(self) -> Simulator:
        """The simulator this system lives on."""

    @property
    @abc.abstractmethod
    def total_cores(self) -> int:
        """Raw physical core count (the utilisation denominator)."""

    @abc.abstractmethod
    def deploy(self) -> None:
        """Bring the system to operational state."""

    @abc.abstractmethod
    def submit(self, job: WorkloadJob) -> None:
        """Enqueue one workload job (increment ``rejected`` if refused)."""

    def finalize(self) -> None:
        self.recorder.finalize(self.sim.now)
