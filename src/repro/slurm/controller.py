"""The SLURM controller: ``slurmctld`` over one ``batch`` partition.

Priority scheduling with EASY backfill (the half SLURM's
``sched/backfill`` plugin guarantees never delays the head job):

* the queue is ordered by (priority desc, submission order);
* the head job blocks until it fits — placement reuses the PBS
  :class:`~repro.pbs.scheduler.NodeIndex` free-core buckets, which only
  need ``job.nodes``/``job.ppn`` and records exposing
  ``available_cores``;
* when the head cannot start, later jobs may backfill **only** if their
  runtime (the model's stand-in for a time limit) ends before the head's
  *shadow time* (the earliest instant the head could start, computed
  from the running jobs' runtimes).  Running jobs without a runtime
  contribute no release and cannot push the shadow earlier; when no
  shadow exists at all (the head can never be satisfied by waiting)
  backfill is unrestricted, since no reservation can be violated.

Job lifecycle, node fencing and checkpoint-credit recovery are the
shared :class:`~repro.sched.lifecycle.BatchScheduler`, so the control
plane sees identical semantics through the :mod:`repro.sched` seam.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.pbs.scheduler import NodeIndex
from repro.sched.lifecycle import BatchScheduler
from repro.sched.protocol import JobRequest
from repro.simkernel import Simulator
from repro.slurm.job import PRIORITY_DEFAULT, SlurmJob, SlurmJobState
from repro.slurm.nodestate import SlurmNodeRecord


class SlurmController(BatchScheduler):
    """Job queue + node table, the ``slurmctld`` role.

    Implements the :class:`repro.sched.protocol.SchedulerPersonality`
    seam (structurally) so the dual-boot control plane can drive it
    without importing this module.
    """

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "slurm"
    display_name = "SLURM"
    join_event = "up"
    leave_event = "down"
    record_key_prefix = "slurm"
    default_owner = "slurm"

    queued_state = SlurmJobState.PENDING
    running_state = SlurmJobState.RUNNING
    done_outcome = SlurmJobState.COMPLETED
    failed_outcome = SlurmJobState.FAILED
    cancelled_outcome = SlurmJobState.CANCELLED

    def __init__(self, sim: Simulator, head_name: str = "slurmctl") -> None:
        # the free-core buckets and node counts PBS places with
        super().__init__(sim, NodeIndex())
        self.head_name = head_name
        self._max_cpus: int = 0

    # The benchmark's span recorder wraps ``fence_node`` per class
    # (through the class ``__dict__``), so it is bound here as well.
    fence_node = BatchScheduler.fence_node

    # -- node table -----------------------------------------------------------

    def add_node(self, hostname: str, cores: int) -> SlurmNodeRecord:
        if hostname in self.nodes:
            raise SchedulerError(f"node {hostname} already in the cluster")
        record = SlurmNodeRecord(hostname=hostname, cores=cores)
        self.nodes[hostname] = record
        self._index.add(record)
        if cores > self._max_cpus:
            self._max_cpus = cores
        return record

    # -- submission -----------------------------------------------------------

    def _shape(self, request: JobRequest) -> Tuple[int, int]:
        """Fix the (nodes, ppn) shape of a submission.

        Explicit ``-N`` keeps its node count (whole nodes when no
        per-node task count is given).  A flat cpu request (``-n``
        without ``-N``) packs onto one node when it fits; beyond that it
        picks the nodes×ppn shape wasting the fewest cpus over the
        request (fewest nodes on ties) — ``sbatch -n`` allocates cpus,
        not whole nodes, so rounding up to full nodes would strand
        capacity a real controller hands to other jobs.
        """
        if request.nodes > 0:
            return request.nodes, request.ppn or self._max_cpus
        cpus = request.cores
        if cpus <= self._max_cpus:
            return 1, cpus
        best: Optional[Tuple[int, int, int]] = None
        for ppn in range(self._max_cpus, 0, -1):
            nodes = -(-cpus // ppn)
            if nodes > len(self.nodes):
                continue
            waste = nodes * ppn - cpus
            if best is None or (waste, nodes) < (best[0], best[1]):
                best = (waste, nodes, ppn)
        if best is None:
            return -(-cpus // self._max_cpus), self._max_cpus
        return best[1], best[2]

    # -- personality seam (repro.sched.protocol) -----------------------------

    def submit_request(self, request: JobRequest) -> str:
        """Admit *request*, shaped onto nodes×ppn (see :meth:`_shape`)."""
        if not self.nodes:
            raise SchedulerError("no nodes registered")
        if request.nodes <= 0 and request.cores < 1:
            raise SchedulerError(f"job cpus must be >= 1, got {request.cores}")
        nodes, ppn = self._shape(request)
        if nodes < 1 or ppn < 1:
            raise SchedulerError(f"bad resource request nodes={nodes} ppn={ppn}")
        if ppn > self._max_cpus:
            raise SchedulerError(
                f"ppn={ppn} exceeds the largest node ({self._max_cpus} cpus)"
            )
        if nodes > len(self.nodes):
            raise SchedulerError(
                f"job wants {nodes} nodes, cluster has {len(self.nodes)}"
            )
        priority = (
            request.priority if request.priority is not None
            else PRIORITY_DEFAULT
        )
        if priority < 0:
            raise SchedulerError(f"priority must be >= 0, got {priority}")
        job = SlurmJob(
            job_id=self._next_id,
            name=request.name,
            owner=self._owner(request),
            nodes=nodes,
            ppn=ppn,
            submitted_at=self.sim.now,
            runtime_s=request.runtime_s,
            script=request.script,
            priority=priority,
            rerunnable=request.rerunnable,
            tag=request.tag,
        )
        self._next_id += 1
        # priority queue with FIFO ties
        self._admit(job, cores=job.total_cores)
        return job.key

    # -- scheduling -----------------------------------------------------------

    def _shadow_time(self, head: SlurmJob) -> Optional[float]:
        """Earliest instant *head* could start, per running-job runtimes.

        Replays the running jobs' releases (soonest expected end first)
        onto a scratch free-cpu map until the head fits.  Running jobs
        without a runtime never release in this projection; ``None``
        means no reservation point exists.
        """
        free = {h: r.available_cores for h, r in self.nodes.items()}
        ends: List[Tuple[float, int]] = []
        for job in self._running.values():
            if job.runtime_s is None or job.start_time is None:
                continue
            ends.append((job.start_time + job.runtime_s, job.job_id))
        ends.sort()
        for end, job_id in ends:
            for hostname, cpus in self.jobs[job_id].allocation.items():
                free[hostname] += cpus
            fitting = sum(1 for c in free.values() if c >= head.ppn)
            if fitting >= head.nodes:
                return end
        return None

    def _try_schedule(self) -> None:
        progress = True
        while progress:
            progress = False
            if not self.queue_order:
                return
            head = self.jobs[self.queue_order[0]]
            placement = self._place(head)
            if placement is not None:
                self.queue_order.pop(0)
                self._start(head, placement)
                progress = True
                continue
            # EASY backfill: jobs behind the blocked head may run only if
            # their runtime ends before the head's shadow time.
            shadow = self._shadow_time(head)
            for position in range(1, len(self.queue_order)):
                job = self.jobs[self.queue_order[position]]
                runtime = job.runtime_s
                if shadow is not None and (
                    runtime is None or self.sim.now + runtime > shadow
                ):
                    continue
                placement = self._place(job)
                if placement is None:
                    continue
                self.queue_order.pop(position)
                self._start(job, placement)
                progress = True
                break

    def _place(
        self, job: SlurmJob
    ) -> Optional[List[Tuple[SlurmNodeRecord, int]]]:
        """Find a placement for *job* via the shared free-core index."""
        return self._index.allocate_fifo(job)

    def _env(self, job: SlurmJob) -> Dict[str, str]:
        return {"SLURM_JOB_ID": str(job.job_id)}
