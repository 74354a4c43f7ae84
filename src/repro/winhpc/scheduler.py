"""The Windows HPC head-node scheduler.

FIFO with head-of-line blocking (HPC Pack's default queued scheduling
mode, and the assumption the paper's daemons make).  ``Core``-unit jobs
pack cores onto the fullest online nodes first; ``Node``-unit jobs need
entirely idle machines.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.sched.counts import NodeCounts
from repro.sched.lifecycle import BatchScheduler
from repro.sched.protocol import JobRequest
from repro.simkernel import Simulator
from repro.winhpc.job import (
    PRIORITY_HIGHEST,
    PRIORITY_LOWEST,
    PRIORITY_NORMAL,
    WinHpcJob,
    WinJobState,
    WinJobUnit,
)
from repro.winhpc.nodestate import WinNodeRecord

#: CORE-unit packing order: fewest free cores first, then by name
_FREE_THEN_NAME = attrgetter("available_cores", "hostname")


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
        self._total_cores: int = 0
        #: largest per-node core count (0 until a node is added)
        self.max_node_cores: int = 0

    # The benchmark's span recorder wraps ``fence_node`` per class
    # (through the class ``__dict__``), so it is bound here as well.
    fence_node = BatchScheduler.fence_node

    # -- node table -----------------------------------------------------------

    def add_node(self, hostname: str, cores: int) -> WinNodeRecord:
        if hostname in self.nodes:
            raise SchedulerError(f"node {hostname} already in the cluster")
        record = WinNodeRecord(hostname=hostname, cores=cores)
        self.nodes[hostname] = record
        self._total_cores += cores
        self.max_node_cores = max(self.max_node_cores, cores)
        self._index.reindex(record)
        return record

    def free_cores(self) -> int:
        return sum(r.available_cores for r in self.nodes.values())

    # -- personality seam (repro.sched.protocol) -----------------------------

    def submit_request(self, request: JobRequest) -> str:
        """Admit *request*: ``nodes`` whole machines (HPC Pack's ``Node``
        unit) when given, else ``cores`` cores anywhere (``Core`` unit)."""
        if request.nodes > 0:
            unit, amount = WinJobUnit.NODE, request.nodes
        else:
            unit, amount = WinJobUnit.CORE, request.cores
        if amount < 1:
            raise SchedulerError(f"job amount must be >= 1, got {amount}")
        if unit is WinJobUnit.CORE:
            if amount > self._total_cores:
                raise SchedulerError(
                    f"job wants {amount} cores, "
                    f"cluster has {self._total_cores}"
                )
        elif amount > len(self.nodes):
            raise SchedulerError(
                f"job wants {amount} nodes, cluster has {len(self.nodes)}"
            )
        priority = (
            request.priority if request.priority is not None
            else PRIORITY_NORMAL
        )
        if not PRIORITY_LOWEST <= priority <= PRIORITY_HIGHEST:
            raise SchedulerError(
                f"priority must be in [{PRIORITY_LOWEST}, {PRIORITY_HIGHEST}],"
                f" got {priority}"
            )
        job = WinHpcJob(
            job_id=self._next_id,
            name=request.name,
            owner=self._owner(request),
            unit=unit,
            amount=amount,
            node_cores=self.max_node_cores or 1,
            submitted_at=self.sim.now,
            runtime_s=request.runtime_s,
            script=request.script,
            tag=request.tag,
            priority=priority,
            rerunnable=request.rerunnable,
        )
        self._next_id += 1
        # priority queue with FIFO ties (HPC Pack's queued scheduling mode)
        self._admit(job, amount=job.amount)
        return job.key

    # -- scheduling -----------------------------------------------------------

    def _place(self, job: WinHpcJob) -> Optional[List[Tuple[WinNodeRecord, int]]]:
        nodes = self.nodes
        if job.unit is WinJobUnit.NODE:
            idle = sorted(self._index.idle_hosts, reverse=True)
            if len(idle) < job.amount:
                return None
            return [(nodes[host], nodes[host].cores) for host in idle[: job.amount]]
        # CORE unit: pack onto the busiest (fewest free cores) nodes first,
        # leaving whole machines idle for NODE-unit work.
        online = sorted(
            (r for r in self._index.online.values() if r.available_cores > 0),
            key=_FREE_THEN_NAME,
        )
        needed = job.amount
        placement: List[Tuple[WinNodeRecord, int]] = []
        for record in online:
            take = min(record.available_cores, needed)
            placement.append((record, take))
            needed -= take
            if needed == 0:
                return placement
        return None

    def _env(self, job: WinHpcJob) -> Dict[str, str]:
        return {"CCP_JOBID": str(job.job_id)}
