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
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import SchedulerError
from repro.pbs.job import JobState, PbsJob
from repro.pbs.nodes import PbsNodeRecord
from repro.pbs.scheduler import NodeIndex
from repro.pbs.script import JobSpec, parse_pbs_script
from repro.sched.lifecycle import BatchScheduler
from repro.sched.protocol import SWITCH_TAG, JobRequest
from repro.simkernel import Simulator

#: Exit status TORQUE reports for jobs killed by node loss / qdel.
KILLED_EXIT_STATUS = 271

#: Exit status for jobs killed at their walltime limit (128 + SIGTERM).
WALLTIME_EXIT_STATUS = 143

#: the host of an ``exec_slots`` entry
_HOST = itemgetter(0)


class PbsServer(BatchScheduler):
    """A TORQUE-like server for one cluster.

    The job lifecycle and node-failure recovery are the shared
    :class:`~repro.sched.lifecycle.BatchScheduler`; this class adds
    ``qsub`` admission, holds, walltime limits, FQDN node names and the
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
    held_state = JobState.HELD
    failed_outcome = KILLED_EXIT_STATUS
    cancelled_outcome = KILLED_EXIT_STATUS
    _job_id = attrgetter("jobid")
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

    # reprolint: disable=TRC002 -- static wiring (the OSCAR nodes file) before the simulation starts
    def create_node(
        self, hostname: str, np: int, properties: Optional[List[str]] = None
    ) -> PbsNodeRecord:
        """Static registration (the OSCAR nodes file)."""
        fqdn = self.fqdn(hostname)
        if fqdn in self.nodes:
            raise SchedulerError(f"node {fqdn} already defined")
        record = PbsNodeRecord(hostname=fqdn, np=np)
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

    def _set_up(self, record: PbsNodeRecord) -> None:
        record.mark_up(self.sim.now)
        self._index.reindex(record)

    def _set_down(self, record: PbsNodeRecord) -> None:
        record.mark_down(self.sim.now)
        self._index.reindex(record)

    def _set_cordoned(self, record: PbsNodeRecord) -> None:
        record.mark_offline(self.sim.now)
        self._index.reindex(record)

    def _set_uncordoned(self, record: PbsNodeRecord) -> None:
        record.clear_offline(self.sim.now)
        self._index.reindex(record)

    def _jobs_on(self, record: PbsNodeRecord) -> List[str]:
        return record.jobs_here()

    def _placed_on(self, job: PbsJob) -> Iterable[str]:
        return dict.fromkeys(map(_HOST, job.exec_slots))

    def _unplace(self, job: PbsJob) -> None:
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
            jobid=jobid,
            name=spec.name,
            owner=f"{owner}@{self.server_name}" if "@" not in owner else owner,
            nodes=spec.nodes,
            ppn=spec.ppn,
            queue=spec.queue,
            qtime=self.sim.now,
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

    def qhold(self, jobid: str) -> None:
        """Hold a queued job: it keeps its queue position but is skipped
        by the scheduler until released (TORQUE ``qhold``)."""
        job = self._get(jobid)
        if job.state is not JobState.QUEUED:
            raise SchedulerError(
                f"{jobid}: only queued jobs can be held "
                f"(state {job.state.value})"
            )
        job.state = JobState.HELD
        self.held_count += 1
        self._trace_job("job.held", job)

    def qrls(self, jobid: str) -> None:
        """Release a held job back into the queue (TORQUE ``qrls``)."""
        job = self._get(jobid)
        if job.state is not JobState.HELD:
            raise SchedulerError(f"{jobid} is not held")
        job.state = JobState.QUEUED
        self.held_count -= 1
        self._trace_job("job.released", job)
        self._try_schedule()

    def qdel(self, jobid: str) -> None:
        """Cancel a job (queued or held: dropped; running: killed)."""
        job = self._get(jobid)
        if job.state is not JobState.HELD:
            self.cancel(jobid)
            return
        self.queue_order.remove(jobid)
        self.held_count -= 1
        self._finish(job, KILLED_EXIT_STATUS)

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
        owner = (
            request.owner if request.owner is not None else self.default_owner
        )
        return self.qsub(spec, owner=owner)

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

    def make_commands(self, default_user: str = "sliang"):
        """The qstat/pbsnodes command facade bound to this server."""
        from repro.pbs.commands import PbsCommands

        return PbsCommands(self, default_user=default_user)

    # -- scheduling & execution -------------------------------------------------

    def _try_schedule(self) -> None:
        started = True
        while started:
            started = False
            for jobid in self.queue_order:
                job = self.jobs[jobid]
                if job.state is JobState.HELD:
                    continue  # held jobs keep their place but do not block
                placement = self._place(job)
                if placement is None:
                    return  # strict FCFS head-of-line blocking
                self.queue_order.remove(jobid)
                self._start(job, placement)
                started = True
                break

    def _place(self, job: PbsJob):
        """Find a placement for *job* (indexed; see NodeIndex).

        Kept as a seam: the equivalence tests monkeypatch this back to the
        reference ``allocate_fifo(job, self.nodes)`` scan to prove the
        index changes nothing.
        """
        return self._index.allocate_fifo(job)

    def _start(self, job: PbsJob, placement) -> None:
        for record, count in placement:
            cores = record.allocate(job.jobid, count)
            self._index.reindex(record)
            for core in cores:
                job.exec_slots.append((record.hostname, core))
        hosts = list(dict.fromkeys(
            host.split(".")[0] for host, _ in job.exec_slots
        ))
        self._launch(job, hosts)

    def _arm(self, job: PbsJob) -> None:
        # walltime enforcement: an armed timer interrupts the runner; a
        # requeued job restarts with only its *remaining* budget (lost
        # work was charged back in _recover)
        if job.walltime_s is None:
            return

        def enforce(jid=job.jobid):
            runner = self._runners.get(jid)
            if runner is not None:
                runner.interrupt("walltime")

        remaining_wall = max(0.0, job.walltime_s - job.walltime_used_s)
        self._walltime_entries[job.jobid] = self.sim.schedule(
            remaining_wall, enforce
        )

    def _disarm(self, job: PbsJob) -> None:
        entry = self._walltime_entries.pop(job.jobid, None)
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
            "PBS_JOBID": job.jobid,
            "PBS_O_HOME": f"/home/{job.owner.split('@')[0]}",
            "PBS_O_LANG": "en_US.UTF-8",
            "PBS_JOBNAME": job.name,
            **job.variables,
        }
