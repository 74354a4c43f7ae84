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

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.errors import SchedulerError
from repro.oslayer.shell import run_script
from repro.pbs.job import JobState, PbsJob
from repro.pbs.nodes import PbsNodeRecord
from repro.pbs.scheduler import NodeIndex
from repro.pbs.script import JobSpec, parse_pbs_script
from repro.sched.protocol import SWITCH_TAG, JobRequest
from repro.simkernel import Event, Interrupt, Simulator, Timeout

#: Exit status TORQUE reports for jobs killed by node loss / qdel.
KILLED_EXIT_STATUS = 271

#: Exit status for jobs killed at their walltime limit (128 + SIGTERM).
WALLTIME_EXIT_STATUS = 143

_BY_SEQ = attrgetter("seq_number")


@dataclass
class MomHandle:
    """The server's line to a node's pbs_mom: how to run a script there."""

    hostname: str
    os_instance: object  # OSInstance; typed loosely to avoid layering back-refs


class PbsServer:
    """A TORQUE-like server for one cluster.

    Implements the :class:`repro.sched.protocol.SchedulerPersonality`
    seam (structurally) so the dual-boot control plane can drive it
    without importing this module.
    """

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "pbs"
    display_name = "PBS"
    join_event = "up"
    record_key_prefix = "pbs"
    default_owner = "sliang"

    def __init__(
        self,
        sim: Simulator,
        server_name: str = "eridani.qgg.hud.ac.uk",
        first_jobid: int = 1180,
    ) -> None:
        self.sim = sim
        self.server_name = server_name
        self.nodes: Dict[str, PbsNodeRecord] = {}
        self.jobs: Dict[str, PbsJob] = {}
        self.queue_order: List[str] = []
        self._index = NodeIndex()
        #: jobs currently RUNNING (state bucket; avoids scanning self.jobs)
        self._running: Dict[str, PbsJob] = {}
        self._max_np: int = 0
        self._moms: Dict[str, MomHandle] = {}
        self._runners: Dict[str, object] = {}  # jobid -> Process
        self._walltime_entries: Dict[str, object] = {}  # jobid -> heap entry
        self._seq = first_jobid
        #: Optional :class:`repro.trace.Tracer` — set by the middleware.
        self.tracer = None
        #: node-failure recovery policy (middleware copies config here)
        self.max_job_restarts = 3
        self.checkpoint_interval_s: Optional[float] = None
        self.requeues = 0
        self.jobs_failed_on_fence = 0
        #: observers: fn(event_name, job) with events submitted/started/finished
        self.observers: List[Callable[[str, PbsJob], None]] = []
        #: node observers: fn(event_name, short hostname) with events up/down
        self.node_observers: List[Callable[[str, str], None]] = []

    # -- node table ------------------------------------------------------------

    def fqdn(self, short: str) -> str:
        """``enode01`` → ``enode01.eridani.qgg.hud.ac.uk``."""
        return short if "." in short else f"{short}.{self.server_name}"

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
        self._index.add(record)
        if np > self._max_np:
            self._max_np = np
        return record

    def node(self, hostname: str) -> PbsNodeRecord:
        fqdn = self.fqdn(hostname)
        try:
            return self.nodes[fqdn]
        except KeyError:
            raise SchedulerError(f"unknown node {fqdn}") from None

    def node_up(self, hostname: str, os_instance: object = None) -> None:
        """A pbs_mom reported in: the node joins the free pool."""
        record = self.node(hostname)
        # a node that crashed and rebooted before the monitor fenced it
        # comes back with its old jobs still booked: recover them first
        stranded = record.jobs_here()
        record.mark_up(self.sim.now)
        self._index.reindex(record)
        if os_instance is not None:
            self._moms[record.hostname] = MomHandle(record.hostname, os_instance)
        for jobid in stranded:
            job = self.jobs.get(jobid)
            if job is not None and job.state is JobState.RUNNING:
                self._recover(job, cause="node returned after crash")
        for observer in self.node_observers:
            observer("up", hostname)
        self._try_schedule()

    def node_down(self, hostname: str) -> None:
        """The mom vanished (reboot/crash): kill its jobs, mark it down."""
        record = self.node(hostname)
        victims = record.jobs_here()
        record.mark_down(self.sim.now)
        self._index.reindex(record)
        self._moms.pop(record.hostname, None)
        for observer in self.node_observers:
            observer("down", hostname)
        for jobid in victims:
            runner = self._runners.get(jobid)
            if runner is not None:
                runner.interrupt("node down")

    # -- node failure & recovery ---------------------------------------------

    # reprolint: disable=TRC002 -- the hardware layer emits node.crash at this same instant; the transition is already traced
    def node_crashed(self, hostname: str) -> None:
        """Hard node death: freeze its jobs where they stand.

        Called the instant the power goes (the hardware layer's crash
        hook), *before* anyone decides the node is gone for good.  The
        runners are killed — a dead node computes nothing — and each
        victim records when it stopped making progress, so the lost-work
        accounting at fence time charges only real compute.  The node
        record itself is left alone: the scheduler has not *observed* the
        death yet; that is the health monitor's call.
        """
        record = self.nodes.get(self.fqdn(hostname))
        if record is None:
            return
        for jobid in record.jobs_here():
            job = self.jobs.get(jobid)
            if job is None or job.state is not JobState.RUNNING:
                continue
            if job.interrupted_at is None:
                job.interrupted_at = self.sim.now
            runner = self._runners.get(jobid)
            if runner is not None and runner.alive:
                runner.kill()

    def fence_node(
        self, hostname: str, cause: str = "node fenced"
    ) -> Dict[str, List[str]]:
        """The health monitor declared the node dead: evict and recover.

        Marks the node down, then requeues every rerunnable victim (with
        retry budget left) and terminally fails the rest.  Returns
        ``{"requeued": [...], "failed": [...]}`` so the caller can abort
        dependent work (e.g. switch orders tied to failed jobs).
        """
        out: Dict[str, List[str]] = {"requeued": [], "failed": []}
        record = self.nodes.get(self.fqdn(hostname))
        if record is None:
            return out
        victims = record.jobs_here()
        record.mark_down(self.sim.now)
        self._index.reindex(record)
        self._moms.pop(record.hostname, None)
        for observer in self.node_observers:
            observer("down", hostname)
        for jobid in victims:
            job = self.jobs.get(jobid)
            if job is None or job.state is not JobState.RUNNING:
                continue
            out[self._recover(job, cause)].append(jobid)
        self._try_schedule()
        return out

    def cordon_node(self, hostname: str) -> None:
        """Admin cordon: no new placements, running jobs keep running."""
        record = self.node(hostname)
        record.mark_offline(self.sim.now)
        self._index.reindex(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.cordoned", node=record.hostname, scheduler="pbs"
            )

    def uncordon_node(self, hostname: str) -> None:
        record = self.node(hostname)
        record.clear_offline(self.sim.now)
        self._index.reindex(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.uncordoned", node=record.hostname, scheduler="pbs"
            )
        self._try_schedule()

    def _recover(self, job: PbsJob, cause: str) -> str:
        """Evict one running job from a dead node: requeue or fail.

        Returns ``"requeued"`` or ``"failed"``.  The checkpoint model
        credits ``floor(elapsed / interval) * interval`` seconds as
        durable; the remainder is lost work, and all elapsed time is
        charged against the walltime budget either way (the queue cannot
        tell how much of a vanished job's run was saved).
        """
        runner = self._runners.pop(job.jobid, None)
        if runner is not None and runner.alive:
            runner.kill()
        entry = self._walltime_entries.pop(job.jobid, None)
        if entry is not None:
            self.sim.cancel(entry)
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
        job.walltime_used_s += elapsed
        for host in dict.fromkeys(host for host, _ in job.exec_slots):
            host_record = self.nodes[host]
            host_record.release(job.jobid)
            self._index.reindex(host_record)
        job.exec_slots.clear()
        self._running.pop(job.jobid, None)
        if job.rerunnable and job.restarts < self.max_job_restarts:
            job.restarts += 1
            job.checkpointed_s += durable
            job.lost_work_s += elapsed - durable
            job.state = JobState.QUEUED
            job.start_time = None
            self._requeue(job.jobid)
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
        self._finish(job, KILLED_EXIT_STATUS, cause=f"{cause} ({suffix})")
        return "failed"

    def _requeue(self, jobid: str) -> None:
        """Reinsert by sequence number: a requeued job rejoins the FIFO
        where its submission order puts it, not at the back."""
        seq = self.jobs[jobid].seq_number
        for i in range(len(self.queue_order) - 1, -1, -1):
            if self.jobs[self.queue_order[i]].seq_number < seq:
                self.queue_order.insert(i + 1, jobid)
                break
        else:
            self.queue_order.insert(0, jobid)

    def _mom_alive(self, job: PbsJob) -> bool:
        """Whether the mom that hosts *job* is still actually running.

        Unit setups that call ``node_up`` without an OS model have no mom
        handle; they count as alive (nothing there can crash silently).
        """
        mom = self._moms.get(job.exec_slots[0][0])
        if mom is None:
            return True
        return getattr(mom.os_instance, "running", True)

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
        jobid = f"{self._seq}.{self.server_name}"
        self._seq += 1
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
        self.jobs[jobid] = job
        self.queue_order.append(jobid)
        self._trace_job("job.submitted", job, cores=job.total_cores)
        self._notify("submitted", job)
        self._try_schedule()
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
        self._trace_job("job.held", job)

    def qrls(self, jobid: str) -> None:
        """Release a held job back into the queue (TORQUE ``qrls``)."""
        job = self._get(jobid)
        if job.state is not JobState.HELD:
            raise SchedulerError(f"{jobid} is not held")
        job.state = JobState.QUEUED
        self._trace_job("job.released", job)
        self._try_schedule()

    def qdel(self, jobid: str) -> None:
        """Cancel a job (queued: dropped; running: killed)."""
        job = self._get(jobid)
        if job.state in (JobState.QUEUED, JobState.HELD):
            self.queue_order.remove(jobid)
            self._finish(job, KILLED_EXIT_STATUS)
        elif job.state is JobState.RUNNING:
            runner = self._runners.get(jobid)
            if runner is not None:
                runner.interrupt("qdel")
        else:
            raise SchedulerError(f"{jobid} is not active (state {job.state.value})")

    # -- queries ----------------------------------------------------------------

    def _get(self, jobid: str) -> PbsJob:
        try:
            return self.jobs[jobid]
        except KeyError:
            raise SchedulerError(f"unknown job {jobid}") from None

    def queued_jobs(self) -> List[PbsJob]:
        """Queued jobs in FIFO order."""
        return [self.jobs[j] for j in self.queue_order]

    def running_jobs(self) -> List[PbsJob]:
        # The _running bucket is keyed by start order; held jobs released
        # late can start out of submission order, so sort by sequence
        # number to match the historical jobs-dict scan.
        return sorted(self._running.values(), key=_BY_SEQ)

    def active_jobs(self) -> List[PbsJob]:
        return self.queued_jobs() + self.running_jobs()

    def active_jobs_by_seq(self) -> List[PbsJob]:
        """All non-completed jobs in submission (sequence-number) order.

        Used by the qstat renderer: equivalent to scanning ``self.jobs``
        and filtering out COMPLETED, but O(active) instead of O(all jobs
        ever submitted).
        """
        active = [self.jobs[jobid] for jobid in self.queue_order]
        active.extend(self._running.values())
        active.sort(key=_BY_SEQ)
        return active

    def free_cores(self) -> int:
        return self._index.free_cores()

    def up_nodes(self) -> List[PbsNodeRecord]:
        return [r for r in self.nodes.values() if r.online]

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

    def node_idle(self, hostname: str) -> bool:
        record = self.nodes.get(self.fqdn(hostname))
        return record is not None and record.idle

    def idle_node_count(self) -> int:
        return self._index.idle_count

    def online_node_count(self) -> int:
        return self._index.online_count

    def drain_node(self, hostname: str) -> List[str]:
        """Cordon *hostname*; returns the jobids still running there."""
        record = self.node(hostname)
        running = list(record.jobs_here())
        self.cordon_node(hostname)
        return running

    def submit_switch_job(self, script: str, owner: str) -> str:
        """Submit an OS-release job (a ``#PBS`` script, tagged)."""
        spec = parse_pbs_script(script)
        spec.tag = SWITCH_TAG
        return self.qsub(spec, owner=owner)

    def pending_switch_jobs(self) -> int:
        return sum(
            1
            for job in self.jobs.values()
            if job.tag == SWITCH_TAG
            and job.state in (JobState.QUEUED, JobState.RUNNING)
        )

    def cancel_if_queued(self, jobid: str) -> bool:
        job = self.jobs.get(jobid)
        if job is not None and job.state is JobState.QUEUED:
            self.qdel(jobid)
            return True
        return False

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
        job.state = JobState.RUNNING
        job.start_time = self.sim.now
        for record, count in placement:
            cores = record.allocate(job.jobid, count)
            self._index.reindex(record)
            for core in cores:
                job.exec_slots.append((record.hostname, core))
        self._running[job.jobid] = job
        self._runners[job.jobid] = self.sim.spawn(
            self._run(job), name=f"pbsjob:{job.jobid}"
        )
        hosts = list(dict.fromkeys(
            host.split(".")[0] for host, _ in job.exec_slots
        ))
        self._trace_job("job.started", job, hosts=hosts)
        self._notify("started", job)

    def _run(self, job: PbsJob):
        # walltime enforcement: an armed timer interrupts the runner; a
        # requeued job restarts with only its *remaining* budget (lost
        # work was charged back in _recover)
        walltime_entry = None
        if job.walltime_s is not None:
            runner_id = job.jobid

            def enforce(jid=runner_id):
                runner = self._runners.get(jid)
                if runner is not None:
                    runner.interrupt("walltime")

            remaining_wall = max(0.0, job.walltime_s - job.walltime_used_s)
            walltime_entry = self.sim.schedule(remaining_wall, enforce)
            self._walltime_entries[job.jobid] = walltime_entry
        try:
            if not self._mom_alive(job):
                # placed onto a node that silently died: nothing runs
                # there, nothing ever completes — park until the health
                # monitor fences the node and this runner is killed
                yield Event(self.sim)
            if job.script is not None:
                result = yield from self._run_script_payload(job)
                exit_status = result.exit_code if result is not None else 1
            else:
                remaining = job.runtime_s if job.runtime_s is not None else 0.0
                yield Timeout(max(0.0, remaining - job.checkpointed_s))
                exit_status = 0
        except Interrupt as interrupt:
            exit_status = (
                WALLTIME_EXIT_STATUS
                if interrupt.cause == "walltime"
                else KILLED_EXIT_STATUS
            )
        if walltime_entry is not None:
            self.sim.cancel(walltime_entry)
        self._finish(job, exit_status)

    def _run_script_payload(self, job: PbsJob):
        first_host = job.exec_slots[0][0]
        mom = self._moms.get(first_host)
        if mom is None:
            return None
        env = {
            "PBS_JOBID": job.jobid,
            "PBS_O_HOME": f"/home/{job.owner.split('@')[0]}",
            "PBS_O_LANG": "en_US.UTF-8",
            "PBS_JOBNAME": job.name,
            **job.variables,
        }
        result = yield from run_script(mom.os_instance, job.script, env=env)
        return result

    def _finish(
        self, job: PbsJob, exit_status: int, cause: Optional[str] = None
    ) -> None:
        job.state = JobState.COMPLETED
        job.end_time = self.sim.now
        job.exit_status = exit_status
        # Release only the nodes the job actually ran on (exec_slots holds
        # one entry per core) — the historical all-nodes sweep made every
        # job completion O(cluster size).
        for host in dict.fromkeys(host for host, _ in job.exec_slots):
            record = self.nodes[host]
            record.release(job.jobid)
            self._index.reindex(record)
        self._running.pop(job.jobid, None)
        self._runners.pop(job.jobid, None)
        entry = self._walltime_entries.pop(job.jobid, None)
        if entry is not None:
            self.sim.cancel(entry)
        if cause is not None:
            self._trace_job(
                "job.failed", job, cause=cause, exit_status=exit_status
            )
        else:
            self._trace_job("job.finished", job, exit_status=exit_status)
        if job.on_complete is not None:
            job.on_complete(job)
        self._notify("finished", job)
        self._try_schedule()

    def _trace_job(self, kind: str, job: PbsJob,
                   cause: Optional[str] = None, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                kind, cause=cause, scheduler="pbs", jobid=job.jobid, **fields
            )

    def _notify(self, event: str, job: PbsJob) -> None:
        for observer in self.observers:
            observer(event, job)
