"""Event recording: OS occupancy intervals and job lifecycles.

A :class:`ClusterRecorder` subscribes to node up/down callbacks and to
both schedulers' observer hooks, accumulating:

* :class:`OsInterval` — ``[start, end)`` spans during which a node was up
  under a given OS (the raw material of the utilisation experiments);
* :class:`JobRecord` — submit/start/end plus core count per job.

``finalize(now)`` closes any open intervals at the horizon so integrals
are well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.hardware.node import ComputeNode
from repro.oslayer.base import OSInstance


@dataclass
class OsInterval:
    node: str
    os_name: str
    start: float
    end: Optional[float] = None

    def duration(self, horizon: float) -> float:
        end = self.end if self.end is not None else horizon
        return max(0.0, min(end, horizon) - self.start)


@dataclass
class JobRecord:
    name: str
    scheduler: str  # personality kind: "pbs" | "winhpc" | "slurm"
    cores: int
    submit_time: float
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    tag: str = ""
    final_state: str = ""

    @property
    def wait_s(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def run_s(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    @property
    def completed(self) -> bool:
        return self.end_time is not None


class ClusterRecorder:
    """Collects intervals and job records for one scenario run."""

    def __init__(self) -> None:
        self.intervals: List[OsInterval] = []
        self._open: Dict[str, OsInterval] = {}
        self.jobs: List[JobRecord] = []
        self._job_index: Dict[str, JobRecord] = {}
        self.switch_count = 0
        #: workload (non-switch) jobs submitted but not yet finished —
        #: maintained incrementally so drain loops don't rescan self.jobs
        self._outstanding_workload = 0

    # -- node occupancy -----------------------------------------------------

    def attach_node(self, node: ComputeNode) -> None:
        """Record OS intervals from *node*'s hook table, which every node
        of its cluster shares, so the whole cluster is recorded."""
        node.hooks.register("os_up", self._node_up)
        node.hooks.register("os_down", self._node_down)

    def _node_up(self, node: ComputeNode, os_instance: OSInstance) -> None:
        interval = OsInterval(
            node=node.name, os_name=os_instance.kind, start=node.sim.now
        )
        previous = self._open.get(node.name)
        if previous is not None and previous.os_name != os_instance.kind:
            self.switch_count += 1
        self._open[node.name] = interval
        self.intervals.append(interval)

    def _node_down(self, node: ComputeNode, os_instance: OSInstance) -> None:
        interval = self._open.get(node.name)
        if interval is not None and interval.end is None:
            interval.end = node.sim.now

    # -- jobs -------------------------------------------------------------------

    def attach_scheduler(self, personality) -> None:
        """Record job lifecycles from any scheduler personality.

        Uses only the uniform surface every personality's native job
        object exposes (``key``, ``submitted_at``, ``cores_submitted()``,
        ``cores_running()``) — see ``repro.sched.protocol``.
        """
        prefix = personality.record_key_prefix
        kind = personality.kind
        personality.observers.append(
            lambda event, job: self._job_event(prefix, kind, event, job)
        )

    def _job_event(self, prefix: str, kind: str, event: str, job) -> None:
        key = f"{prefix}:{job.key}"
        if event == "submitted":
            record = JobRecord(
                name=job.name, scheduler=kind, cores=job.cores_submitted(),
                submit_time=job.submitted_at, tag=job.tag,
            )
            self._job_index[key] = record
            self.jobs.append(record)
            if record.tag != "os-switch":
                self._outstanding_workload += 1
        elif key in self._job_index:
            record = self._job_index[key]
            if event == "started":
                record.start_time = job.start_time
                record.cores = job.cores_running()
            elif event == "finished":
                if record.end_time is None and record.tag != "os-switch":
                    self._outstanding_workload -= 1
                record.end_time = job.end_time
                record.final_state = job.state.value

    # -- finalisation -----------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Close open intervals at the horizon (idempotent)."""
        for interval in self._open.values():
            if interval.end is None:
                interval.end = now

    # -- selections --------------------------------------------------------------

    def workload_jobs(self, exclude_tag: str = "os-switch") -> List[JobRecord]:
        return [j for j in self.jobs if not exclude_tag or j.tag != exclude_tag]

    def outstanding_workload(self) -> int:
        """Submitted-but-unfinished workload (non-switch) job count.

        O(1): equivalent to ``len([j for j in workload_jobs() if not
        j.completed])`` without the scan — scenario drain loops call this
        once per simulation event.
        """
        return self._outstanding_workload
