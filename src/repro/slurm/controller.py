"""The SLURM controller: ``slurmctld`` over one partition set.

Priority scheduling with EASY backfill (the half SLURM's
``sched/backfill`` plugin guarantees never delays the head job):

* the queue is ordered by (priority desc, submission order);
* the head job blocks until it fits — placement reuses the PBS
  :class:`~repro.pbs.scheduler.NodeIndex` free-core buckets, which only
  need ``job.nodes``/``job.ppn`` and records exposing
  ``available_cores``;
* when the head cannot start, later jobs may backfill **only** if their
  time limit ends before the head's *shadow time* (the earliest instant
  the head could start, computed from the running jobs' limits).  Jobs
  whose running peers carry no limit contribute no release and cannot
  push the shadow earlier; when no shadow exists at all (the head can
  never be satisfied by waiting) backfill is unrestricted, since no
  reservation can be violated.

Job lifecycle, node fencing and checkpoint-credit recovery mirror the
other personalities so the control plane sees identical semantics
through the :mod:`repro.sched` seam.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.oslayer.shell import run_script
from repro.pbs.scheduler import NodeIndex
from repro.sched.counts import SwitchJobs
from repro.sched.protocol import SWITCH_JOB_NAME, SWITCH_TAG, JobRequest
from repro.simkernel import Event, Interrupt, Simulator, Timeout
from repro.slurm.job import (
    PRIORITY_DEFAULT,
    SlurmJob,
    SlurmJobSpec,
    SlurmJobState,
)
from repro.slurm.nodestate import SlurmNodeRecord


class SlurmController:
    """Job queue + node table, the ``slurmctld`` role.

    Implements the :class:`repro.sched.protocol.SchedulerPersonality`
    seam (structurally) so the dual-boot control plane can drive it
    without importing this module.
    """

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "slurm"
    display_name = "SLURM"
    join_event = "up"
    record_key_prefix = "slurm"
    default_owner = "slurm"

    def __init__(self, sim: Simulator, head_name: str = "slurmctl") -> None:
        self.sim = sim
        self.head_name = head_name
        self.nodes: Dict[str, SlurmNodeRecord] = {}
        self.jobs: Dict[int, SlurmJob] = {}
        #: pending job ids ordered (priority desc, submission order)
        self.queue_order: List[int] = []
        self.switch_jobs = SwitchJobs()
        #: free-core buckets and node counts shared with PBS; duck-typed
        #: over :class:`SlurmNodeRecord` (hostname, available_cores,
        #: online, idle).
        self._index: Any = NodeIndex()
        self._running: Dict[int, SlurmJob] = {}
        self._max_cpus: int = 0
        self._node_os: Dict[str, object] = {}
        self._runners: Dict[int, object] = {}
        self._seq = 1
        #: Optional :class:`repro.trace.Tracer` — set by the middleware.
        self.tracer: Any = None
        #: node-failure recovery policy (middleware copies config here)
        self.max_job_restarts = 3
        self.checkpoint_interval_s: Optional[float] = None
        self.requeues = 0
        self.jobs_failed_on_fence = 0
        self.observers: List[Callable[[str, SlurmJob], None]] = []
        #: node observers: fn(event_name, hostname) with events up/down
        self.node_observers: List[Callable[[str, str], None]] = []

    # -- node table -----------------------------------------------------------

    # reprolint: disable=TRC002 -- static wiring (cluster build) before the simulation starts
    def add_node(
        self, hostname: str, cores: int, partition: str = "batch"
    ) -> SlurmNodeRecord:
        if hostname in self.nodes:
            raise SchedulerError(f"node {hostname} already in the cluster")
        record = SlurmNodeRecord(
            hostname=hostname, cpus=cores, partition=partition
        )
        self.nodes[hostname] = record
        self._index.add(record)
        if cores > self._max_cpus:
            self._max_cpus = cores
        return record

    def node(self, hostname: str) -> SlurmNodeRecord:
        try:
            return self.nodes[hostname]
        except KeyError:
            raise SchedulerError(f"unknown node {hostname}") from None

    def node_online(self, hostname: str, os_instance: object = None) -> None:
        """A slurmd registered: the node joins the free pool."""
        record = self.node(hostname)
        # a node that crashed and rebooted before the monitor fenced it
        # comes back with its old allocations booked: recover them first
        stranded = list(record.allocations)
        record.mark_up()
        self._index.reindex(record)
        if os_instance is not None:
            self._node_os[hostname] = os_instance
        for job_id in stranded:
            job = self.jobs.get(job_id)
            if job is not None and job.state is SlurmJobState.RUNNING:
                self._recover(job, cause="node returned after crash")
        for observer in self.node_observers:
            observer("up", hostname)
        self._try_schedule()

    def node_unreachable(self, hostname: str) -> None:
        """The slurmd vanished (reboot/crash): kill its jobs, mark down."""
        record = self.node(hostname)
        victims = list(record.allocations)
        record.mark_down()
        self._index.reindex(record)
        self._node_os.pop(hostname, None)
        for observer in self.node_observers:
            observer("down", hostname)
        for job_id in victims:
            runner = self._runners.get(job_id)
            if runner is not None:
                runner.interrupt("node down")  # type: ignore[attr-defined]

    # -- node failure & recovery ---------------------------------------------

    # reprolint: disable=TRC002 -- the hardware layer emits node.crash at this same instant; the transition is already traced
    def node_crashed(self, hostname: str) -> None:
        """Hard node death: freeze its jobs where they stand.

        Same contract as ``PbsServer.node_crashed`` — runners are killed
        and each victim records when it stopped making progress; the
        node record is untouched until the health monitor fences it.
        """
        record = self.nodes.get(hostname)
        if record is None:
            return
        for job_id in list(record.allocations):
            job = self.jobs.get(job_id)
            if job is None or job.state is not SlurmJobState.RUNNING:
                continue
            if job.interrupted_at is None:
                job.interrupted_at = self.sim.now
            runner = self._runners.get(job_id)
            if runner is not None and getattr(runner, "alive", False):
                runner.kill()  # type: ignore[attr-defined]

    def fence_node(
        self, hostname: str, cause: str = "node fenced"
    ) -> Dict[str, List[int]]:
        """The health monitor declared the node dead: evict and recover."""
        out: Dict[str, List[int]] = {"requeued": [], "failed": []}
        record = self.nodes.get(hostname)
        if record is None:
            return out
        victims = list(record.allocations)
        record.mark_down()
        self._index.reindex(record)
        self._node_os.pop(hostname, None)
        for observer in self.node_observers:
            observer("down", hostname)
        for job_id in victims:
            job = self.jobs.get(job_id)
            if job is None or job.state is not SlurmJobState.RUNNING:
                continue
            out[self._recover(job, cause)].append(job_id)
        self._try_schedule()
        return out

    def cordon_node(self, hostname: str) -> None:
        """Admin drain: no new placements, running jobs keep running."""
        record = self.node(hostname)
        record.mark_drain()
        self._index.reindex(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.cordoned", node=hostname, scheduler="slurm"
            )

    def uncordon_node(self, hostname: str) -> None:
        record = self.node(hostname)
        record.resume()
        self._index.reindex(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.uncordoned", node=hostname, scheduler="slurm"
            )
        self._try_schedule()

    def _recover(self, job: SlurmJob, cause: str) -> str:
        """Evict one running job from a dead node: requeue or fail.

        Mirror of ``WinHpcScheduler._recover`` — the checkpoint model
        credits ``floor(elapsed / interval) * interval`` seconds as
        durable; the remainder is lost work.
        """
        runner = self._runners.pop(job.job_id, None)
        if runner is not None and getattr(runner, "alive", False):
            runner.kill()  # type: ignore[attr-defined]
        stopped_at = (
            job.interrupted_at if job.interrupted_at is not None else self.sim.now
        )
        started_at = job.start_time if job.start_time is not None else stopped_at
        elapsed = max(0.0, stopped_at - started_at)
        job.interrupted_at = None
        interval = self.checkpoint_interval_s
        durable = 0.0
        if interval is not None and interval > 0:
            durable = (elapsed // interval) * interval
            if job.runtime_s is not None:
                durable = min(
                    durable, max(0.0, job.runtime_s - job.checkpointed_s)
                )
        for hostname in list(job.allocation):
            host_record = self.nodes[hostname]
            host_record.release(job.job_id)
            self._index.reindex(host_record)
        job.allocation.clear()
        self._running.pop(job.job_id, None)
        if job.rerunnable and job.restarts < self.max_job_restarts:
            job.restarts += 1
            job.checkpointed_s += durable
            job.lost_work_s += elapsed - durable
            job.state = SlurmJobState.PENDING
            job.start_time = None
            self._requeue(job)
            self.switch_jobs.requeued(job.job_id)
            self.requeues += 1
            self._trace_job(
                "job.requeued", job, cause=cause,
                restarts=job.restarts,
                lost_s=elapsed - durable,
                checkpointed_s=job.checkpointed_s,
            )
            self._notify("requeued", job)
            return "requeued"
        job.lost_work_s += elapsed
        self.jobs_failed_on_fence += 1
        suffix = (
            "not rerunnable" if not job.rerunnable else "retry budget exhausted"
        )
        self._finish(job, SlurmJobState.FAILED, cause=f"{cause} ({suffix})")
        return "failed"

    def _requeue(self, job: SlurmJob) -> None:
        """Reinsert by (priority, submission order): a requeued job rejoins
        where its original position puts it, not at the back of its band."""
        position = 0
        for index in range(len(self.queue_order) - 1, -1, -1):
            other = self.jobs[self.queue_order[index]]
            if other.priority > job.priority or (
                other.priority == job.priority and other.job_id < job.job_id
            ):
                position = index + 1
                break
        self.queue_order.insert(position, job.job_id)

    def _node_alive(self, job: SlurmJob) -> bool:
        """Whether the slurmd hosting *job* is still actually running.

        Unit setups that call ``node_online`` without an OS model have no
        handle; they count as alive (nothing there can crash silently).
        """
        os_instance = self._node_os.get(next(iter(job.allocation)))
        if os_instance is None:
            return True
        return bool(getattr(os_instance, "running", True))

    # -- submission -----------------------------------------------------------

    def _shape(self, spec: SlurmJobSpec) -> Tuple[int, int]:
        """Fix the (nodes, ppn) shape of a submission.

        Explicit ``-N`` keeps its node count (whole nodes when no
        per-node task count is given).  A flat cpu request (``-n``
        without ``-N``) packs onto one node when it fits; beyond that it
        picks the nodes×ppn shape wasting the fewest cpus over the
        request (fewest nodes on ties) — ``sbatch -n`` allocates cpus,
        not whole nodes, so rounding up to full nodes would strand
        capacity a real controller hands to other jobs.
        """
        if spec.nodes > 0:
            return spec.nodes, spec.ppn if spec.ppn > 0 else self._max_cpus
        if spec.cpus <= self._max_cpus:
            return 1, spec.cpus
        best: Optional[Tuple[int, int, int]] = None
        for ppn in range(self._max_cpus, 0, -1):
            nodes = -(-spec.cpus // ppn)
            if nodes > len(self.nodes):
                continue
            waste = nodes * ppn - spec.cpus
            if best is None or (waste, nodes) < (best[0], best[1]):
                best = (waste, nodes, ppn)
        if best is None:
            return -(-spec.cpus // self._max_cpus), self._max_cpus
        return best[1], best[2]

    def submit(self, spec: SlurmJobSpec, owner: str = "slurm") -> SlurmJob:
        if not self.nodes:
            raise SchedulerError("no nodes registered")
        if spec.nodes <= 0 and spec.cpus < 1:
            raise SchedulerError(f"job cpus must be >= 1, got {spec.cpus}")
        nodes, ppn = self._shape(spec)
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
        if spec.priority < 0:
            raise SchedulerError(f"priority must be >= 0, got {spec.priority}")
        job = SlurmJob(
            job_id=self._seq,
            name=spec.name,
            owner=owner,
            nodes=nodes,
            ppn=ppn,
            partition=spec.partition,
            submit_time=self.sim.now,
            runtime_s=spec.runtime_s,
            time_limit_s=spec.time_limit_s,
            script=spec.script,
            priority=spec.priority,
            rerunnable=spec.rerunnable,
            tag=spec.tag,
        )
        self._seq += 1
        self.jobs[job.job_id] = job
        self.switch_jobs.submitted(job.job_id, job)
        # priority queue with FIFO ties: insert after the last job of
        # equal or greater priority (tail scan — O(1) for the common
        # equal-priority case).
        position = 0
        for index in range(len(self.queue_order) - 1, -1, -1):
            if self.jobs[self.queue_order[index]].priority >= job.priority:
                position = index + 1
                break
        self.queue_order.insert(position, job.job_id)
        self._trace_job("job.submitted", job, cores=job.total_cores)
        self._notify("submitted", job)
        self._try_schedule()
        return job

    def cancel(self, job_id: int) -> None:
        job = self._get(job_id)
        if job.state is SlurmJobState.PENDING:
            self.queue_order.remove(job_id)
            self._finish(job, SlurmJobState.CANCELLED)
        elif job.state is SlurmJobState.RUNNING:
            runner = self._runners.get(job_id)
            if runner is not None:
                runner.interrupt("cancelled")  # type: ignore[attr-defined]
        else:
            raise SchedulerError(f"job {job_id} is {job.state.value}")

    # -- queries ---------------------------------------------------------------

    def _get(self, job_id: int) -> SlurmJob:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job {job_id}") from None

    def queued_jobs(self) -> List[SlurmJob]:
        """Pending jobs in dispatch (priority, FIFO) order."""
        return [self.jobs[j] for j in self.queue_order]

    def iter_queued(self) -> Iterator[SlurmJob]:
        """:meth:`queued_jobs` without building the list."""
        return map(self.jobs.__getitem__, self.queue_order)

    def running_jobs(self) -> List[SlurmJob]:
        # Sorted by job id to present a stable submission-order view
        # (priorities can start jobs out of id order).
        return sorted(self._running.values(), key=lambda j: j.job_id)

    def queued_count(self) -> int:
        return len(self.queue_order)

    def running_count(self) -> int:
        return len(self._running)

    def free_cores(self) -> int:
        return int(self._index.free_cores())

    def up_nodes(self) -> List[SlurmNodeRecord]:
        return [r for r in self.nodes.values() if r.online]

    # -- personality seam (repro.sched.protocol) -----------------------------

    def submit_request(self, request: JobRequest) -> str:
        """Scheduler-neutral submit: shape the request onto nodes×ppn."""
        spec = SlurmJobSpec(
            name=request.name,
            nodes=request.nodes,
            ppn=request.ppn,
            cpus=request.cores,
            runtime_s=request.runtime_s,
            script=request.script,
            tag=request.tag,
            priority=(
                request.priority
                if request.priority is not None
                else PRIORITY_DEFAULT
            ),
            rerunnable=request.rerunnable,
        )
        owner = (
            request.owner if request.owner is not None else self.default_owner
        )
        return str(self.submit(spec, owner=owner).job_id)

    def get_job(self, jobid: str) -> Optional[SlurmJob]:
        try:
            return self.jobs.get(int(jobid))
        except ValueError:
            return None

    def node_idle(self, hostname: str) -> bool:
        record = self.nodes.get(hostname)
        return record is not None and record.idle

    def idle_node_count(self) -> int:
        return int(self._index.idle_count)

    def online_node_count(self) -> int:
        return int(self._index.online_count)

    def idle_hosts(self) -> Iterable[str]:
        return self._index.idle_hosts.keys()  # type: ignore[no-any-return]

    def drain_node(self, hostname: str) -> List[str]:
        """Cordon *hostname*; returns the job ids still running there."""
        record = self.node(hostname)
        running = [str(job_id) for job_id in record.allocations]
        self.cordon_node(hostname)
        return running

    def submit_switch_job(self, script: str, owner: str) -> str:
        """Submit an OS-release job: one whole node, not rerunnable."""
        job = self.submit(
            SlurmJobSpec(
                name=SWITCH_JOB_NAME,
                nodes=1,
                script=script,
                tag=SWITCH_TAG,
                rerunnable=False,
            ),
            owner=owner,
        )
        return str(job.job_id)

    def pending_switch_jobs(self) -> int:
        switch = self.switch_jobs
        return sum(
            1
            for job in (*switch.queued.values(), *switch.running.values())
            if job.tag == SWITCH_TAG
        )

    def cancel_if_queued(self, jobid: str) -> bool:
        job = self.get_job(jobid)
        if job is not None and job.state is SlurmJobState.PENDING:
            self.cancel(job.job_id)
            return True
        return False

    # -- scheduling -----------------------------------------------------------

    def _limit(self, job: SlurmJob) -> Optional[float]:
        """The job's expected occupancy bound (time limit, else runtime)."""
        if job.time_limit_s is not None:
            return job.time_limit_s
        return job.runtime_s

    def _shadow_time(self, head: SlurmJob) -> Optional[float]:
        """Earliest instant *head* could start, per running-job limits.

        Replays the running jobs' releases (soonest expected end first)
        onto a scratch free-cpu map until the head fits.  Running jobs
        without any limit never release in this projection; ``None``
        means no reservation point exists.
        """
        free = {h: r.available_cores for h, r in self.nodes.items()}
        ends: List[Tuple[float, int]] = []
        for job in self._running.values():
            limit = self._limit(job)
            if limit is None or job.start_time is None:
                continue
            ends.append((job.start_time + limit, job.job_id))
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
            # their limit ends before the head's shadow time.
            shadow = self._shadow_time(head)
            for position in range(1, len(self.queue_order)):
                job = self.jobs[self.queue_order[position]]
                limit = self._limit(job)
                if shadow is not None and (
                    limit is None or self.sim.now + limit > shadow
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
        placement = self._index.allocate_fifo(job)
        return placement  # type: ignore[no-any-return]

    def _start(
        self, job: SlurmJob, placement: List[Tuple[SlurmNodeRecord, int]]
    ) -> None:
        job.state = SlurmJobState.RUNNING
        job.start_time = self.sim.now
        for record, cpus in placement:
            record.allocate(job.job_id, cpus)
            self._index.reindex(record)
            job.allocation[record.hostname] = cpus
        self._running[job.job_id] = job
        self.switch_jobs.started(job.job_id)
        self._runners[job.job_id] = self.sim.spawn(
            self._run(job), name=f"slurmjob:{job.job_id}"
        )
        self._trace_job("job.started", job, hosts=list(job.allocation))
        self._notify("started", job)

    def _run(self, job: SlurmJob) -> Iterator[object]:
        final = SlurmJobState.COMPLETED
        try:
            if not self._node_alive(job):
                # placed onto a node that silently died: nothing runs
                # there, nothing ever completes — park until the health
                # monitor fences the node and this runner is killed
                yield Event(self.sim)
            if job.script is not None:
                first_host = next(iter(job.allocation))
                os_instance = self._node_os.get(first_host)
                if os_instance is None:
                    final = SlurmJobState.FAILED
                else:
                    result = yield from run_script(
                        os_instance, job.script,
                        env={"SLURM_JOB_ID": str(job.job_id)},
                    )
                    if not result.ok:
                        final = SlurmJobState.FAILED
            else:
                remaining = job.runtime_s if job.runtime_s is not None else 0.0
                yield Timeout(max(0.0, remaining - job.checkpointed_s))
        except Interrupt:
            final = SlurmJobState.CANCELLED
        self._finish(job, final)

    def _finish(
        self, job: SlurmJob, state: SlurmJobState, cause: Optional[str] = None
    ) -> None:
        job.state = state
        job.end_time = self.sim.now
        for hostname in job.allocation:
            record = self.nodes[hostname]
            record.release(job.job_id)
            self._index.reindex(record)
        self._running.pop(job.job_id, None)
        self.switch_jobs.ended(job.job_id)
        self._runners.pop(job.job_id, None)
        if cause is not None:
            self._trace_job("job.failed", job, cause=cause, state=state.value)
        else:
            self._trace_job("job.finished", job, state=state.value)
        if job.on_complete is not None:
            job.on_complete(job)
        self._notify("finished", job)
        self._try_schedule()

    def _trace_job(self, kind: str, job: SlurmJob,
                   cause: Optional[str] = None, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                kind, cause=cause, scheduler="slurm", jobid=job.job_id,
                **fields,
            )

    def _notify(self, event: str, job: SlurmJob) -> None:
        for observer in self.observers:
            observer(event, job)
