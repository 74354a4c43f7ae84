"""The Windows HPC head-node scheduler.

FIFO with head-of-line blocking (HPC Pack's default queued scheduling
mode, and the assumption the paper's daemons make).  ``Core``-unit jobs
pack cores onto the fullest online nodes first; ``Node``-unit jobs need
entirely idle machines.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional

from repro.errors import SchedulerError
from repro.oslayer.shell import run_script
from repro.sched.counts import NodeCounts, SwitchJobs
from repro.sched.protocol import SWITCH_TAG, JobRequest
from repro.simkernel import Event, Interrupt, Simulator, Timeout
from repro.winhpc.job import (
    PRIORITY_NORMAL,
    WinHpcJob,
    WinJobSpec,
    WinJobState,
    WinJobUnit,
)
from repro.winhpc.nodestate import WinNodeRecord, WinNodeState


class WinHpcScheduler:
    """Job queue + node table on the Windows head node.

    Implements the :class:`repro.sched.protocol.SchedulerPersonality`
    seam (structurally) so the dual-boot control plane can drive it
    without importing this module.
    """

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "winhpc"
    display_name = "WinHPC"
    join_event = "online"
    record_key_prefix = "win"
    default_owner = "HPCUser"

    def __init__(self, sim: Simulator, head_name: str = "winhead") -> None:
        self.sim = sim
        self.head_name = head_name
        self.nodes: Dict[str, WinNodeRecord] = {}
        self.jobs: Dict[int, WinHpcJob] = {}
        self.queue_order: List[int] = []
        self.switch_jobs = SwitchJobs()
        #: jobs currently RUNNING (state bucket; avoids scanning self.jobs)
        self._running: Dict[int, WinHpcJob] = {}
        #: cached ONLINE-node list in ``self.nodes`` insertion order.
        #: Node *state* changes only happen in the six transition methods
        #: below, which all reset this to None; job start/finish churn
        #: (the hot path) leaves it valid, so ``online_nodes()`` stops
        #: being an O(cluster) scan per scheduling decision.
        self._online_cache: Optional[List[WinNodeRecord]] = None
        #: online/idle nodes, recounted wherever a record can change them
        self._counts = NodeCounts()
        self._total_cores: int = 0
        #: largest per-node core count (0 until a node is added)
        self.max_node_cores: int = 0
        self._node_os: Dict[str, object] = {}
        self._runners: Dict[int, object] = {}
        self._seq = 1
        #: Optional :class:`repro.trace.Tracer` — set by the middleware.
        self.tracer = None
        #: node-failure recovery policy (middleware copies config here)
        self.max_job_restarts = 3
        self.checkpoint_interval_s: Optional[float] = None
        self.requeues = 0
        self.jobs_failed_on_fence = 0
        self.observers: List[Callable[[str, WinHpcJob], None]] = []
        #: node observers: fn(event_name, hostname) with events online/unreachable
        self.node_observers: List[Callable[[str, str], None]] = []

    # -- node table -----------------------------------------------------------

    # reprolint: disable=TRC002 -- static wiring (cluster build) before the simulation starts
    def add_node(self, hostname: str, cores: int, template: str = "") -> WinNodeRecord:
        if hostname in self.nodes:
            raise SchedulerError(f"node {hostname} already in the cluster")
        record = WinNodeRecord(hostname=hostname, cores=cores)
        if template:
            record.template = template
        self.nodes[hostname] = record
        self._total_cores += cores
        self.max_node_cores = max(self.max_node_cores, cores)
        self._online_cache = None
        self._counts.count(record)
        return record

    def node(self, hostname: str) -> WinNodeRecord:
        try:
            return self.nodes[hostname]
        except KeyError:
            raise SchedulerError(f"unknown node {hostname}") from None

    def node_online(self, hostname: str, os_instance: object = None) -> None:
        record = self.node(hostname)
        # a node that crashed and rebooted before the monitor fenced it
        # comes back with its old allocations booked: recover them first
        stranded = list(record.allocations)
        record.mark_online()
        self._online_cache = None
        self._counts.count(record)
        if os_instance is not None:
            self._node_os[hostname] = os_instance
        for job_id in stranded:
            job = self.jobs.get(job_id)
            if job is not None and job.state is WinJobState.RUNNING:
                self._recover(job, cause="node returned after crash")
        for observer in self.node_observers:
            observer("online", hostname)
        self._try_schedule()

    def node_unreachable(self, hostname: str) -> None:
        record = self.node(hostname)
        victims = list(record.allocations)
        record.mark_unreachable()
        self._online_cache = None
        self._counts.count(record)
        self._node_os.pop(hostname, None)
        for observer in self.node_observers:
            observer("unreachable", hostname)
        for job_id in victims:
            runner = self._runners.get(job_id)
            if runner is not None:
                runner.interrupt("node unreachable")

    # -- node failure & recovery ---------------------------------------------

    # reprolint: disable=TRC002 -- the hardware layer emits node.crash at this same instant; the transition is already traced
    def node_crashed(self, hostname: str) -> None:
        """Hard node death: freeze its jobs where they stand.

        Same contract as ``PbsServer.node_crashed`` — the runners are
        killed and each victim records when it stopped making progress;
        the node record is untouched until the health monitor fences it.
        """
        record = self.nodes.get(hostname)
        if record is None:
            return
        for job_id in list(record.allocations):
            job = self.jobs.get(job_id)
            if job is None or job.state is not WinJobState.RUNNING:
                continue
            if job.interrupted_at is None:
                job.interrupted_at = self.sim.now
            runner = self._runners.get(job_id)
            if runner is not None and runner.alive:
                runner.kill()

    def fence_node(
        self, hostname: str, cause: str = "node fenced"
    ) -> Dict[str, List[int]]:
        """The health monitor declared the node dead: evict and recover."""
        out: Dict[str, List[int]] = {"requeued": [], "failed": []}
        record = self.nodes.get(hostname)
        if record is None:
            return out
        victims = list(record.allocations)
        record.mark_unreachable()
        self._online_cache = None
        self._counts.count(record)
        self._node_os.pop(hostname, None)
        for observer in self.node_observers:
            observer("unreachable", hostname)
        for job_id in victims:
            job = self.jobs.get(job_id)
            if job is None or job.state is not WinJobState.RUNNING:
                continue
            out[self._recover(job, cause)].append(job_id)
        self._try_schedule()
        return out

    def cordon_node(self, hostname: str) -> None:
        """Admin drain: no new placements, running jobs keep running."""
        record = self.node(hostname)
        record.mark_draining()
        self._online_cache = None
        self._counts.count(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.cordoned", node=hostname, scheduler="winhpc"
            )

    def uncordon_node(self, hostname: str) -> None:
        record = self.node(hostname)
        record.resume_online()
        self._online_cache = None
        self._counts.count(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.uncordoned", node=hostname, scheduler="winhpc"
            )
        self._try_schedule()

    def _recover(self, job: WinHpcJob, cause: str) -> str:
        """Evict one running job from a dead node: requeue or fail.

        Mirror of ``PbsServer._recover`` (minus walltime accounting —
        HPC Pack jobs here carry no walltime budget).
        """
        runner = self._runners.pop(job.job_id, None)
        if runner is not None and runner.alive:
            runner.kill()
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
            self._release(hostname, job.job_id)
        job.allocation.clear()
        self._running.pop(job.job_id, None)
        if job.rerunnable and job.restarts < self.max_job_restarts:
            job.restarts += 1
            job.checkpointed_s += durable
            job.lost_work_s += elapsed - durable
            job.state = WinJobState.QUEUED
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
        self._finish(job, WinJobState.FAILED, cause=f"{cause} ({suffix})")
        return "failed"

    def _requeue(self, job: WinHpcJob) -> None:
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

    def _node_alive(self, job: WinHpcJob) -> bool:
        """Whether the node manager hosting *job* is still actually running.

        Unit setups that call ``node_online`` without an OS model have no
        handle; they count as alive (nothing there can crash silently).
        """
        os_instance = self._node_os.get(next(iter(job.allocation)))
        if os_instance is None:
            return True
        return getattr(os_instance, "running", True)

    # -- submission -----------------------------------------------------------

    def submit(self, spec: WinJobSpec, owner: str = "HPCUser") -> WinHpcJob:
        if spec.amount < 1:
            raise SchedulerError(f"job amount must be >= 1, got {spec.amount}")
        if spec.unit is WinJobUnit.CORE:
            if spec.amount > self._total_cores:
                raise SchedulerError(
                    f"job wants {spec.amount} cores, "
                    f"cluster has {self._total_cores}"
                )
        elif spec.amount > len(self.nodes):
            raise SchedulerError(
                f"job wants {spec.amount} nodes, cluster has {len(self.nodes)}"
            )
        if not 0 <= spec.priority <= 4000:
            raise SchedulerError(
                f"priority must be in [0, 4000], got {spec.priority}"
            )
        job = WinHpcJob(
            job_id=self._seq,
            name=spec.name,
            owner=owner,
            unit=spec.unit,
            amount=spec.amount,
            submit_time=self.sim.now,
            runtime_s=spec.runtime_s,
            script=spec.script,
            tag=spec.tag,
            priority=spec.priority,
            rerunnable=spec.rerunnable,
        )
        self._seq += 1
        self.jobs[job.job_id] = job
        self.switch_jobs.submitted(job.job_id, job)
        # priority queue with FIFO ties: insert after the last job of equal
        # or greater priority (HPC Pack's queued scheduling mode).  The
        # queue is always sorted non-increasing by priority, so scanning
        # from the tail finds the slot in O(1) for the common equal-
        # priority case instead of walking the whole backlog.
        position = 0
        for index in range(len(self.queue_order) - 1, -1, -1):
            if self.jobs[self.queue_order[index]].priority >= job.priority:
                position = index + 1
                break
        self.queue_order.insert(position, job.job_id)
        self._trace_job("job.submitted", job, amount=job.amount)
        self._notify("submitted", job)
        self._try_schedule()
        return job

    def cancel(self, job_id: int) -> None:
        job = self._get(job_id)
        if job.state is WinJobState.QUEUED:
            self.queue_order.remove(job_id)
            self._finish(job, WinJobState.CANCELED)
        elif job.state is WinJobState.RUNNING:
            runner = self._runners.get(job_id)
            if runner is not None:
                runner.interrupt("canceled")
        else:
            raise SchedulerError(f"job {job_id} is {job.state.value}")

    # -- queries ---------------------------------------------------------------

    def _get(self, job_id: int) -> WinHpcJob:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job {job_id}") from None

    def queued_jobs(self) -> List[WinHpcJob]:
        return [self.jobs[j] for j in self.queue_order]

    def iter_queued(self) -> Iterator[WinHpcJob]:
        """:meth:`queued_jobs` without building the list."""
        return map(self.jobs.__getitem__, self.queue_order)

    def running_jobs(self) -> List[WinHpcJob]:
        # Sorted by job id to match the historical jobs-dict scan (jobs
        # can start out of id order when priorities reorder the queue).
        return sorted(self._running.values(), key=lambda j: j.job_id)

    def queued_count(self) -> int:
        return len(self.queue_order)

    def running_count(self) -> int:
        return len(self._running)

    # reprolint: disable=TRC002 -- read-only query; the only write is the memoised rebuild of _online_cache, invisible to any caller
    def online_nodes(self) -> List[WinNodeRecord]:
        cache = self._online_cache
        if cache is None:
            cache = [
                r for r in self.nodes.values()
                if r.state is WinNodeState.ONLINE
            ]
            self._online_cache = cache
        return cache.copy()

    # reprolint: disable=TRC002 -- read-only query; reaches the memoised _online_cache rebuild through online_nodes()
    def idle_nodes(self) -> List[WinNodeRecord]:
        return [r for r in self.online_nodes() if r.idle]

    def free_cores(self) -> int:
        return sum(r.available_cores for r in self.nodes.values())

    # -- personality seam (repro.sched.protocol) -----------------------------

    def submit_request(self, request: JobRequest) -> str:
        """Scheduler-neutral submit: shape the request onto a unit."""
        if request.nodes > 0:
            unit, amount = WinJobUnit.NODE, request.nodes
        else:
            unit, amount = WinJobUnit.CORE, request.cores
        spec = WinJobSpec(
            name=request.name,
            unit=unit,
            amount=amount,
            runtime_s=request.runtime_s,
            script=request.script,
            tag=request.tag,
            priority=(
                request.priority
                if request.priority is not None
                else PRIORITY_NORMAL
            ),
            rerunnable=request.rerunnable,
        )
        owner = (
            request.owner if request.owner is not None else self.default_owner
        )
        return str(self.submit(spec, owner=owner).job_id)

    def get_job(self, jobid: str) -> Optional[WinHpcJob]:
        try:
            return self.jobs.get(int(jobid))
        except ValueError:
            return None

    def node_idle(self, hostname: str) -> bool:
        record = self.nodes.get(hostname)
        return record is not None and record.idle

    def idle_node_count(self) -> int:
        return self._counts.idle_count

    def online_node_count(self) -> int:
        return self._counts.online_count

    def idle_hosts(self) -> Iterable[str]:
        return self._counts.idle_hosts.keys()

    def drain_node(self, hostname: str) -> List[str]:
        """Cordon *hostname*; returns the job ids still running there."""
        record = self.node(hostname)
        running = [str(job_id) for job_id in record.allocations]
        self.cordon_node(hostname)
        return running

    def submit_switch_job(self, script: str, owner: str) -> str:
        """Submit an OS-release job: one whole node, not rerunnable."""
        job = self.submit(
            WinJobSpec(
                name="release_1_node",
                unit=WinJobUnit.NODE,
                amount=1,
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
        if job is not None and job.state is WinJobState.QUEUED:
            self.cancel(job.job_id)
            return True
        return False

    # -- scheduling -----------------------------------------------------------

    def _try_schedule(self) -> None:
        while self.queue_order:
            job = self.jobs[self.queue_order[0]]
            placement = self._place(job)
            if placement is None:
                return  # FIFO head-of-line blocking
            self.queue_order.pop(0)
            self._start(job, placement)

    def _place(self, job: WinHpcJob) -> Optional[Dict[str, int]]:
        if job.unit is WinJobUnit.NODE:
            idle = sorted(self.idle_nodes(), key=lambda r: r.hostname, reverse=True)
            if len(idle) < job.amount:
                return None
            return {record.hostname: record.cores for record in idle[: job.amount]}
        # CORE unit: pack onto the busiest (fewest free cores) nodes first,
        # leaving whole machines idle for NODE-unit work.
        online = sorted(
            (r for r in self.online_nodes() if r.available_cores > 0),
            key=lambda r: (r.available_cores, r.hostname),
        )
        needed = job.amount
        placement: Dict[str, int] = {}
        for record in online:
            take = min(record.available_cores, needed)
            placement[record.hostname] = take
            needed -= take
            if needed == 0:
                return placement
        return None

    def _start(self, job: WinHpcJob, placement: Dict[str, int]) -> None:
        job.state = WinJobState.RUNNING
        job.start_time = self.sim.now
        for hostname, cores in placement.items():
            record = self.nodes[hostname]
            record.allocate(job.job_id, cores)
            self._counts.count(record)
            job.allocation[hostname] = cores
        self._running[job.job_id] = job
        self.switch_jobs.started(job.job_id)
        self._runners[job.job_id] = self.sim.spawn(
            self._run(job), name=f"winjob:{job.job_id}"
        )
        self._trace_job("job.started", job, hosts=list(placement))
        self._notify("started", job)

    def _run(self, job: WinHpcJob):
        final = WinJobState.FINISHED
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
                    final = WinJobState.FAILED
                else:
                    result = yield from run_script(
                        os_instance, job.script,
                        env={"CCP_JOBID": str(job.job_id)},
                    )
                    if not result.ok:
                        final = WinJobState.FAILED
            else:
                remaining = job.runtime_s if job.runtime_s is not None else 0.0
                yield Timeout(max(0.0, remaining - job.checkpointed_s))
        except Interrupt:
            final = WinJobState.CANCELED
        self._finish(job, final)

    def _finish(
        self, job: WinHpcJob, state: WinJobState, cause: Optional[str] = None
    ) -> None:
        job.state = state
        job.end_time = self.sim.now
        # Release only the nodes the job was placed on — the historical
        # all-nodes sweep made every completion O(cluster size).
        for hostname in job.allocation:
            self._release(hostname, job.job_id)
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

    def _release(self, hostname: str, job_id: int) -> None:
        record = self.nodes[hostname]
        record.release(job_id)
        self._counts.count(record)

    def _trace_job(self, kind: str, job: WinHpcJob,
                   cause: Optional[str] = None, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                kind, cause=cause, scheduler="winhpc", jobid=job.job_id,
                **fields,
            )

    def _notify(self, event: str, job: WinHpcJob) -> None:
        for observer in self.observers:
            observer(event, job)
