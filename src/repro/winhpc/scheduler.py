"""The Windows HPC head-node scheduler.

FIFO with head-of-line blocking (HPC Pack's default queued scheduling
mode, and the assumption the paper's daemons make).  ``Core``-unit jobs
pack cores onto the fullest online nodes first; ``Node``-unit jobs need
entirely idle machines.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SchedulerError
from repro.sched.counts import NodeCounts
from repro.sched.lifecycle import BatchScheduler
from repro.sched.protocol import SWITCH_JOB_NAME, SWITCH_TAG, JobRequest
from repro.simkernel import Simulator
from repro.winhpc.job import (
    PRIORITY_NORMAL,
    WinHpcJob,
    WinJobSpec,
    WinJobState,
    WinJobUnit,
)
from repro.winhpc.nodestate import WinNodeRecord, WinNodeState


class WinHpcScheduler(BatchScheduler):
    """Job queue + node table on the Windows head node.

    The job lifecycle and node-failure recovery are the shared
    :class:`~repro.sched.lifecycle.BatchScheduler`; this class adds
    HPC Pack admission, the priority-band FIFO dispatcher and NODE/CORE
    packing.  It implements the
    :class:`repro.sched.protocol.SchedulerPersonality` seam (structurally)
    so the dual-boot control plane can drive it without importing this
    module.
    """

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "winhpc"
    display_name = "WinHPC"
    join_event = "online"
    leave_event = "unreachable"
    record_key_prefix = "win"
    default_owner = "HPCUser"

    queued_state = WinJobState.QUEUED
    running_state = WinJobState.RUNNING
    done_outcome = WinJobState.FINISHED
    failed_outcome = WinJobState.FAILED
    cancelled_outcome = WinJobState.CANCELED

    def __init__(self, sim: Simulator, head_name: str = "winhead") -> None:
        super().__init__(sim, NodeCounts())
        self.head_name = head_name
        #: cached ONLINE-node list in ``self.nodes`` insertion order.
        #: Node *state* changes only happen in the four ``_set_*``
        #: transitions below, which all reset this to None; job
        #: start/finish churn (the hot path) leaves it valid, so
        #: ``online_nodes()`` stops being an O(cluster) scan per
        #: scheduling decision.
        self._online_cache: Optional[List[WinNodeRecord]] = None
        self._total_cores: int = 0
        #: largest per-node core count (0 until a node is added)
        self.max_node_cores: int = 0

    # The benchmark's span recorder wraps ``fence_node`` per class
    # (through the class ``__dict__``), so it is bound here as well.
    fence_node = BatchScheduler.fence_node

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
        self._index.reindex(record)
        return record

    def _restate(self, record: WinNodeRecord) -> None:
        self._online_cache = None
        self._index.reindex(record)

    def _set_up(self, record: WinNodeRecord) -> None:
        record.mark_online()
        self._restate(record)

    def _set_down(self, record: WinNodeRecord) -> None:
        record.mark_unreachable()
        self._restate(record)

    def _set_cordoned(self, record: WinNodeRecord) -> None:
        record.mark_draining()
        self._restate(record)

    def _set_uncordoned(self, record: WinNodeRecord) -> None:
        record.resume_online()
        self._restate(record)

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
            job_id=self._next_id,
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
        self._next_id += 1
        # priority queue with FIFO ties (HPC Pack's queued scheduling mode)
        self._admit(job, amount=job.amount)
        return job

    # -- queries ---------------------------------------------------------------

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

    def submit_switch_job(self, script: str, owner: str) -> str:
        """Submit an OS-release job: one whole node, not rerunnable."""
        job = self.submit(
            WinJobSpec(
                name=SWITCH_JOB_NAME,
                unit=WinJobUnit.NODE,
                amount=1,
                script=script,
                tag=SWITCH_TAG,
                rerunnable=False,
            ),
            owner=owner,
        )
        return str(job.job_id)

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
        for hostname, cores in placement.items():
            record = self.nodes[hostname]
            record.allocate(job.job_id, cores)
            self._index.reindex(record)
            job.allocation[hostname] = cores
        self._launch(job, list(placement))

    def _env(self, job: WinHpcJob) -> Dict[str, str]:
        return {"CCP_JOBID": str(job.job_id)}
