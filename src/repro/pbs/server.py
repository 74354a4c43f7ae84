"""The PBS server: queue, node table, job lifecycle.

One object plays ``pbs_server`` + ``pbs_sched`` + the moms' supervision:

* jobs enter via :meth:`qsub` (spec or raw ``#PBS`` script text);
* scheduling is event-driven strict FCFS (see :mod:`repro.pbs.scheduler`);
* each running job is a simulation process: either a timed payload or a
  script executed on the first allocated node's OS — the latter is how
  Figure 4's OS-switch job really reboots a machine here;
* a node going down (reboot!) interrupts every job process on it,
  mirroring TORQUE killing jobs when a mom disappears.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.pbs.job import JobState, PbsJob
from repro.pbs.nodes import PbsNodeRecord
from repro.pbs.scheduler import NodeIndex
from repro.pbs.script import JobSpec, parse_pbs_script
from repro.sched.lifecycle import BatchScheduler
from repro.sched.protocol import SWITCH_TAG, JobRequest
from repro.simkernel import Simulator

#: Exit status TORQUE reports for jobs killed by node loss or cancelled.
KILLED_EXIT_STATUS = 271

#: Exit status for jobs killed at their walltime limit (128 + SIGTERM).
WALLTIME_EXIT_STATUS = 143

#: the host of an ``exec_slots`` entry
_HOST = itemgetter(0)


class PbsServer(BatchScheduler):
    """A TORQUE-like server for one cluster.

    The job lifecycle and node-failure recovery are the shared
    :class:`~repro.sched.lifecycle.BatchScheduler`; this class adds
    ``qsub`` admission, walltime limits, FQDN node names and the
    strict-FCFS dispatcher.  It implements the
    :class:`repro.sched.protocol.SchedulerPersonality` seam (structurally)
    so the dual-boot control plane can drive it without importing this
    module.
    """

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "pbs"
    display_name = "PBS"
    join_event = "up"
    leave_event = "down"
    record_key_prefix = "pbs"
    default_owner = "sliang"

    queued_state = JobState.QUEUED
    running_state = JobState.RUNNING
    failed_outcome = KILLED_EXIT_STATUS
    cancelled_outcome = KILLED_EXIT_STATUS
    _seq = attrgetter("seq_number")

    def __init__(
        self,
        sim: Simulator,
        server_name: str = "eridani.qgg.hud.ac.uk",
        first_jobid: int = 1180,
    ) -> None:
        super().__init__(sim, NodeIndex(), first_id=first_jobid)
        self.server_name = server_name
        #: FQDN -> the name the node was registered under
        self._names: Dict[str, str] = {}
        self._max_np: int = 0
        self._walltime_entries: Dict[str, Any] = {}  # jobid -> heap entry

    # The benchmark's span recorder wraps these per class (through the
    # class ``__dict__``), so they are bound here as well.
    fence_node = BatchScheduler.fence_node
    up_nodes = BatchScheduler.up_nodes

    # -- node table ------------------------------------------------------------

    def fqdn(self, short: str) -> str:
        """``enode01`` → ``enode01.eridani.qgg.hud.ac.uk``."""
        return short if "." in short else f"{short}.{self.server_name}"

    _node_key = fqdn

    def create_node(
        self, hostname: str, np: int, properties: Optional[List[str]] = None
    ) -> PbsNodeRecord:
        """Static registration (the OSCAR nodes file)."""
        fqdn = self.fqdn(hostname)
        if fqdn in self.nodes:
            raise SchedulerError(f"node {fqdn} already defined")
        record = PbsNodeRecord(hostname=fqdn, cores=np)
        if properties:
            record.properties = list(properties)
        self.nodes[fqdn] = record
        self._names[fqdn] = hostname
        self._index.add(record)
        if np > self._max_np:
            self._max_np = np
        return record

    #: a pbs_mom reported in / vanished (TORQUE's node states)
    node_up = BatchScheduler.node_online
    node_down = BatchScheduler.node_unreachable

    def _placed_on(self, job: PbsJob) -> Iterable[str]:
        return dict.fromkeys(map(_HOST, job.exec_slots))

    def _unplace(self, job: PbsJob) -> None:
        super()._unplace(job)
        job.exec_slots.clear()

    def _recover(self, job: PbsJob, cause: str) -> str:
        # all elapsed time is charged against the walltime budget, saved
        # or not (the queue cannot tell how much of a vanished run was)
        job.walltime_used_s += self._elapsed(job)
        return super()._recover(job, cause)

    # -- job intake ----------------------------------------------------------

    def qsub(self, spec_or_script, owner: str = "sliang") -> str:
        """Submit a job; returns the jobid."""
        spec = (
            parse_pbs_script(spec_or_script)
            if isinstance(spec_or_script, str)
            else spec_or_script
        )
        if spec.nodes < 1 or spec.ppn < 1:
            raise SchedulerError(
                f"bad resource request nodes={spec.nodes} ppn={spec.ppn}"
            )
        if spec.ppn > self._max_np:
            raise SchedulerError(
                f"ppn={spec.ppn} exceeds the largest node ({self._max_np} cores)"
            )
        jobid = f"{self._next_id}.{self.server_name}"
        self._next_id += 1
        job = PbsJob(
            job_id=jobid,
            name=spec.name,
            owner=f"{owner}@{self.server_name}" if "@" not in owner else owner,
            nodes=spec.nodes,
            ppn=spec.ppn,
            queue=spec.queue,
            submitted_at=self.sim.now,
            runtime_s=spec.runtime_s,
            walltime_s=spec.walltime_s,
            script=spec.script,
            rerunnable=spec.rerunnable,
            join_oe=spec.join_oe,
            output_path=spec.output_path,
            variables=dict(spec.variables),
            tag=spec.tag,
        )
        self._admit(job, cores=job.total_cores)
        return jobid

    # -- queries ----------------------------------------------------------------

    def active_jobs_by_seq(self) -> List[PbsJob]:
        """All non-completed jobs in submission (sequence-number) order.

        Used by the qstat renderer: equivalent to scanning ``self.jobs``
        and filtering out COMPLETED, but O(active) instead of O(all jobs
        ever submitted).
        """
        active = [self.jobs[jobid] for jobid in self.queue_order]
        active.extend(self._running.values())
        active.sort(key=self._seq)
        return active

    # -- personality seam (repro.sched.protocol) -----------------------------

    def submit_request(self, request: JobRequest) -> str:
        """Scheduler-neutral submit: shape the request onto nodes:ppn."""
        spec = JobSpec(
            name=request.name,
            nodes=request.nodes or 1,
            ppn=request.ppn or request.cores,
            runtime_s=request.runtime_s,
            rerunnable=request.rerunnable,
            script=request.script,
            tag=request.tag,
        )
        return self.qsub(spec, owner=self._owner(request))

    def get_job(self, jobid: str) -> Optional[PbsJob]:
        return self.jobs.get(jobid)

    def idle_hosts(self) -> List[str]:
        names = self._names
        return [names[host] for host in self._index.idle_hosts]

    def submit_switch_job(self, script: str, owner: str) -> str:
        """Submit an OS-release job (a ``#PBS`` script, tagged)."""
        spec = parse_pbs_script(script)
        spec.tag = SWITCH_TAG
        return self.qsub(spec, owner=owner)

    # -- scheduling & execution -------------------------------------------------

    def _place(self, job: PbsJob):
        """Find a placement for *job* (indexed; see NodeIndex).

        Kept as a seam: the equivalence tests monkeypatch this back to the
        reference ``allocate_fifo(job, self.nodes)`` scan of
        ``tests/pbs/reference.py`` to prove the index changes nothing.
        """
        return self._index.allocate_fifo(job)

    def _start(
        self, job: PbsJob, placement: List[Tuple[PbsNodeRecord, int]]
    ) -> None:
        allocation = job.allocation
        for record, count in placement:
            cores = record.allocate(job.job_id, count)
            self._index.reindex(record)
            for core in cores:
                job.exec_slots.append((record.hostname, core))
            host = record.hostname.split(".")[0]
            allocation[host] = allocation.get(host, 0) + count
        self._launch(job)

    def _arm(self, job: PbsJob) -> None:
        # walltime enforcement: an armed timer interrupts the runner; a
        # requeued job restarts with only its *remaining* budget (lost
        # work was charged back in _recover)
        if job.walltime_s is None:
            return

        def enforce(jid=job.job_id):
            runner = self._runners.get(jid)
            if runner is not None:
                runner.interrupt("walltime")

        remaining_wall = max(0.0, job.walltime_s - job.walltime_used_s)
        self._walltime_entries[job.job_id] = self.sim.schedule(
            remaining_wall, enforce
        )

    def _disarm(self, job: PbsJob) -> None:
        entry = self._walltime_entries.pop(job.job_id, None)
        if entry is not None:
            self.sim.cancel(entry)

    def _interrupted(self, cause: Any) -> int:
        return WALLTIME_EXIT_STATUS if cause == "walltime" else KILLED_EXIT_STATUS

    def _outcome(self, exit_code: int) -> int:
        return exit_code

    def _settle(self, job: PbsJob, outcome: int) -> Dict[str, Any]:
        job.state = JobState.COMPLETED
        job.exit_status = outcome
        return {"exit_status": outcome}

    def _env(self, job: PbsJob) -> Dict[str, str]:
        return {
            "PBS_JOBID": job.job_id,
            "PBS_O_HOME": f"/home/{job.owner.split('@')[0]}",
            "PBS_O_LANG": "en_US.UTF-8",
            "PBS_JOBNAME": job.name,
            **job.variables,
        }
