"""The job lifecycle every scheduler personality shares.

:class:`BatchScheduler` is written once for PBS, WinHPC and SLURM: the
job and node tables, the queue, the running jobs and the processes that
run them, the observers and the tracer, and the node-failure recovery
policy (fence, checkpoint credit, retry budget, requeue or fail).  A
personality subclasses it and keeps only what really differs:

* admission and shaping (``qsub``/``submit``, ``submit_request``);
* the dispatch policy, :meth:`_try_schedule`, and placement;
* node-record transitions and their index upkeep (:meth:`_set_up`,
  :meth:`_set_down`, :meth:`_set_cordoned`, :meth:`_set_uncordoned`);
* the payload environment (:meth:`_env`) and how an outcome is encoded
  (exit status or final state: :meth:`_outcome`, :meth:`_settle`).

One job's life: admitted into the queue (:meth:`_admit`), started
(:meth:`_launch`) into a runner process (:meth:`_run`), then finished
(:meth:`_finish`) or, when its node dies, recovered (:meth:`_recover`):
requeued with checkpoint credit, or failed.  The control plane still
sees only :class:`~repro.sched.protocol.SchedulerPersonality`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from repro.errors import SchedulerError
from repro.oslayer.shell import run_script
from repro.sched.counts import NodeCounts, SwitchJobs
from repro.sched.protocol import SWITCH_TAG
from repro.simkernel import Event, Interrupt, Process, Simulator, Timeout


class BatchScheduler:
    """Job queue, node table and job lifecycle of one head node.

    Subclasses set the identity attributes of the protocol plus the
    native vocabulary below, and implement the hooks that raise
    :class:`NotImplementedError` here.
    """

    # -- identity (repro.sched.protocol) ------------------------------------
    kind: str
    join_event: str
    record_key_prefix: str
    #: node-observer event for a node leaving (reboot, crash, fence)
    leave_event: str

    # -- native vocabulary ----------------------------------------------------
    queued_state: Any
    running_state: Any
    #: a queued state the dispatcher skips (PBS holds); None when absent
    held_state: Any = None
    #: what :meth:`_finish` records for a payload exiting 0 / non-zero, a
    #: job cancelled or interrupted, and a fenced job with no requeue left
    done_outcome: Any
    failed_outcome: Any
    cancelled_outcome: Any
    #: a job's native id, and the number that orders submissions
    _job_id = attrgetter("job_id")
    _seq = attrgetter("job_id")

    def __init__(self, sim: Simulator, index: NodeCounts, first_id: int = 1) -> None:
        self.sim = sim
        self.nodes: Dict[str, Any] = {}
        self.jobs: Dict[Any, Any] = {}
        #: queued job ids in dispatch order: priority bands, FIFO within
        #: each (see :meth:`_enqueue`)
        self.queue_order: List[Any] = []
        self.switch_jobs = SwitchJobs()
        #: queued jobs in :attr:`held_state`
        self.held_count = 0
        #: online and idle nodes, kept as records change (PBS and SLURM
        #: pass their free-core index, which is such a count too)
        self._index: Any = index
        #: jobs currently running (state bucket; avoids scanning self.jobs)
        self._running: Dict[Any, Any] = {}
        #: job id -> the process running its payload
        self._runners: Dict[Any, Process] = {}
        #: node key -> its OS, for script payloads and the liveness check
        self._node_os: Dict[str, Any] = {}
        self._next_id = first_id
        #: Optional :class:`repro.trace.Tracer` — set by the middleware.
        self.tracer: Any = None
        #: node-failure recovery policy (middleware copies config here)
        self.max_job_restarts = 3
        self.checkpoint_interval_s: Optional[float] = None
        self.requeues = 0
        self.jobs_failed_on_fence = 0
        #: observers: fn(event_name, job) with events
        #: submitted/started/finished/requeued
        self.observers: List[Callable[[str, Any], None]] = []
        #: node observers: fn(event_name, hostname as passed in) with the
        #: join and leave events
        self.node_observers: List[Callable[[str, str], None]] = []

    # -- personality hooks ----------------------------------------------------

    def _try_schedule(self) -> None:
        """Start whatever the dispatch policy allows."""
        raise NotImplementedError

    def _set_up(self, record: Any) -> None:
        """Mark *record* up (clearing its allocations) and reindex it."""
        raise NotImplementedError

    def _set_down(self, record: Any) -> None:
        """Mark *record* down (clearing its allocations) and reindex it."""
        raise NotImplementedError

    def _set_cordoned(self, record: Any) -> None:
        """Close *record* to new work, keeping its jobs, and reindex it."""
        raise NotImplementedError

    def _set_uncordoned(self, record: Any) -> None:
        """Lift a cordon on *record* and reindex it."""
        raise NotImplementedError

    def _env(self, job: Any) -> Dict[str, str]:
        """Environment of *job*'s script payload."""
        raise NotImplementedError

    def _node_key(self, hostname: str) -> str:
        """The node-table key of *hostname* (PBS qualifies it)."""
        return hostname

    def _jobs_on(self, record: Any) -> List[Any]:
        """Ids of the jobs holding cores on *record*."""
        return list(record.allocations)

    def _placed_on(self, job: Any) -> Iterable[str]:
        """Node keys *job* holds, first allocated first."""
        return job.allocation

    def _unplace(self, job: Any) -> None:
        """Forget *job*'s placement (its nodes were already released)."""
        job.allocation.clear()

    def _outcome(self, exit_code: int) -> Any:
        """What a payload exiting with *exit_code* records."""
        return self.done_outcome if exit_code == 0 else self.failed_outcome

    def _interrupted(self, cause: Any) -> Any:
        """What a payload interrupted with *cause* records."""
        return self.cancelled_outcome

    def _settle(self, job: Any, outcome: Any) -> Dict[str, Any]:
        """Record *outcome* on a finished *job*; returns its trace fields."""
        job.state = outcome
        return {"state": outcome.value}

    def _arm(self, job: Any) -> None:
        """Set up per-run timers as *job*'s runner starts (PBS walltime)."""

    def _disarm(self, job: Any) -> None:
        """Cancel what :meth:`_arm` set up."""

    # -- node table -----------------------------------------------------------

    def node(self, hostname: str) -> Any:
        name = self._node_key(hostname)
        try:
            return self.nodes[name]
        except KeyError:
            raise SchedulerError(f"unknown node {name}") from None

    def node_online(self, hostname: str, os_instance: Any = None) -> None:
        """The node's daemon reported in: the node joins the free pool."""
        record = self.node(hostname)
        # a node that crashed and rebooted before the monitor fenced it
        # comes back with its old jobs still booked: recover them first
        stranded = self._jobs_on(record)
        self._set_up(record)
        if os_instance is not None:
            self._node_os[record.hostname] = os_instance
        for key in stranded:
            job = self.jobs.get(key)
            if job is not None and job.state is self.running_state:
                self._recover(job, cause="node returned after crash")
        for observer in self.node_observers:
            observer(self.join_event, hostname)
        self._try_schedule()

    def node_unreachable(self, hostname: str) -> None:
        """The node's daemon vanished (reboot/crash): kill its jobs."""
        for key in self._leave(self.node(hostname), hostname):
            runner = self._runners.get(key)
            if runner is not None:
                runner.interrupt(f"node {self.leave_event}")

    def _leave(self, record: Any, hostname: str) -> List[Any]:
        """Take *record* down; returns the ids of the jobs it held."""
        victims = self._jobs_on(record)
        self._set_down(record)
        self._node_os.pop(record.hostname, None)
        for observer in self.node_observers:
            observer(self.leave_event, hostname)
        return victims

    # -- node failure & recovery ----------------------------------------------

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
        record = self.nodes.get(self._node_key(hostname))
        if record is None:
            return
        for key in self._jobs_on(record):
            job = self.jobs.get(key)
            if job is None or job.state is not self.running_state:
                continue
            if job.interrupted_at is None:
                job.interrupted_at = self.sim.now
            runner = self._runners.get(key)
            if runner is not None and runner.alive:
                runner.kill()

    def fence_node(
        self, hostname: str, cause: str = "node fenced"
    ) -> Dict[str, List[Any]]:
        """The health monitor declared the node dead: evict and recover.

        Marks the node down, then requeues every rerunnable victim (with
        retry budget left) and terminally fails the rest.  Returns
        ``{"requeued": [...], "failed": [...]}`` so the caller can abort
        dependent work (e.g. switch orders tied to failed jobs).
        """
        out: Dict[str, List[Any]] = {"requeued": [], "failed": []}
        record = self.nodes.get(self._node_key(hostname))
        if record is None:
            return out
        for key in self._leave(record, hostname):
            job = self.jobs.get(key)
            if job is None or job.state is not self.running_state:
                continue
            out[self._recover(job, cause)].append(key)
        self._try_schedule()
        return out

    def cordon_node(self, hostname: str) -> None:
        """Admin cordon: no new placements, running jobs keep running."""
        record = self.node(hostname)
        self._set_cordoned(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.cordoned", node=record.hostname, scheduler=self.kind
            )

    def uncordon_node(self, hostname: str) -> None:
        record = self.node(hostname)
        self._set_uncordoned(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.uncordoned", node=record.hostname, scheduler=self.kind
            )
        self._try_schedule()

    def drain_node(self, hostname: str) -> List[str]:
        """Cordon *hostname*; returns the job ids still running there."""
        running = [str(key) for key in self._jobs_on(self.node(hostname))]
        self.cordon_node(hostname)
        return running

    def _elapsed(self, job: Any) -> float:
        """Seconds *job* computed in its current run, up to the crash
        instant if its node crashed, else up to now."""
        stopped_at = (
            job.interrupted_at if job.interrupted_at is not None else self.sim.now
        )
        started_at = job.start_time if job.start_time is not None else stopped_at
        return max(0.0, stopped_at - started_at)

    def _recover(self, job: Any, cause: str) -> str:
        """Evict one running job from a dead node: requeue or fail.

        Returns ``"requeued"`` or ``"failed"``.  The checkpoint model
        credits ``floor(elapsed / interval) * interval`` seconds as
        durable, capped at the runtime not yet checkpointed; the
        remainder is lost work.  A job requeues while it is rerunnable
        and has restarts left in its retry budget.
        """
        key = self._job_id(job)
        runner = self._runners.pop(key, None)
        if runner is not None and runner.alive:
            runner.kill()
        self._disarm(job)
        elapsed = self._elapsed(job)
        job.interrupted_at = None
        interval = self.checkpoint_interval_s
        durable = 0.0
        if interval is not None and interval > 0:
            durable = (elapsed // interval) * interval
            if job.runtime_s is not None:
                durable = min(
                    durable, max(0.0, job.runtime_s - job.checkpointed_s)
                )
        self._release(job)
        self._unplace(job)
        self._running.pop(key, None)
        if job.rerunnable and job.restarts < self.max_job_restarts:
            job.restarts += 1
            job.checkpointed_s += durable
            job.lost_work_s += elapsed - durable
            job.state = self.queued_state
            job.start_time = None
            self._requeue(job)
            self.switch_jobs.requeued(key)
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
        self._finish(job, self.failed_outcome, cause=f"{cause} ({suffix})")
        return "failed"

    def _node_alive(self, key: str) -> bool:
        """Whether the OS of node *key* is still actually running.

        Unit setups that bring nodes online without an OS model have no
        handle; they count as alive (nothing there can crash silently).
        """
        os_instance = self._node_os.get(key)
        return os_instance is None or bool(getattr(os_instance, "running", True))

    # -- the queue ------------------------------------------------------------

    def _enqueue(self, job: Any) -> None:
        """Queue a new job after every job of equal or greater priority
        (FIFO within a band; PBS jobs all share priority 0).  The queue
        is always sorted non-increasing by priority, so scanning from
        the tail finds the slot in O(1) for the common equal-priority
        case instead of walking the whole backlog."""
        position = 0
        for index in range(len(self.queue_order) - 1, -1, -1):
            if self.jobs[self.queue_order[index]].priority >= job.priority:
                position = index + 1
                break
        self.queue_order.insert(position, self._job_id(job))

    def _requeue(self, job: Any) -> None:
        """Reinsert by (priority, submission order): a requeued job
        rejoins where its original position puts it, not at the back of
        its band."""
        seq = self._seq(job)
        position = 0
        for index in range(len(self.queue_order) - 1, -1, -1):
            other = self.jobs[self.queue_order[index]]
            if other.priority > job.priority or (
                other.priority == job.priority and self._seq(other) < seq
            ):
                position = index + 1
                break
        self.queue_order.insert(position, self._job_id(job))

    def _admit(self, job: Any, **fields: Any) -> None:
        """Book a newly submitted *job*, trace it with *fields*, and try
        to start it."""
        key = self._job_id(job)
        self.jobs[key] = job
        self.switch_jobs.submitted(key, job)
        self._enqueue(job)
        self._trace_job("job.submitted", job, **fields)
        self._notify("submitted", job)
        self._try_schedule()

    def cancel(self, job_id: Any) -> None:
        """Cancel a job: dropped when queued, interrupted when running."""
        job = self._get(job_id)
        if job.state is self.queued_state:
            self.queue_order.remove(job_id)
            self._finish(job, self.cancelled_outcome)
        elif job.state is self.running_state:
            runner = self._runners.get(job_id)
            if runner is not None:
                runner.interrupt("cancelled")
        else:
            raise SchedulerError(f"job {job_id} is {job.state.value}")

    def cancel_if_queued(self, jobid: str) -> bool:
        job = self.get_job(jobid)
        if job is not None and job.state is self.queued_state:
            self.cancel(self._job_id(job))
            return True
        return False

    # -- queries --------------------------------------------------------------

    def _get(self, job_id: Any) -> Any:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job {job_id}") from None

    def get_job(self, jobid: str) -> Optional[Any]:
        try:
            return self.jobs.get(int(jobid))
        except ValueError:
            return None

    def queued_jobs(self) -> List[Any]:
        """Queued jobs in dispatch order."""
        return [self.jobs[key] for key in self.queue_order]

    def iter_queued(self) -> Iterator[Any]:
        """:meth:`queued_jobs` without building the list."""
        return map(self.jobs.__getitem__, self.queue_order)

    def queued_count(self) -> int:
        return len(self.queue_order)

    def running_count(self) -> int:
        return len(self._running)

    def running_jobs(self) -> List[Any]:
        # Sorted by submission order: jobs can start out of it (priorities,
        # holds, backfill), and callers expect the historical jobs-dict scan.
        return sorted(self._running.values(), key=self._seq)

    def free_cores(self) -> int:
        """Unallocated cores, from the free-core index (a personality
        keeping only node counts sums its records instead)."""
        return self._index.free_cores()

    def up_nodes(self) -> List[Any]:
        return [r for r in self.nodes.values() if r.online]

    def node_idle(self, hostname: str) -> bool:
        record = self.nodes.get(self._node_key(hostname))
        return record is not None and bool(record.idle)

    def idle_node_count(self) -> int:
        return self._index.idle_count

    def online_node_count(self) -> int:
        return self._index.online_count

    def idle_hosts(self) -> Iterable[str]:
        return self._index.idle_hosts.keys()

    def pending_switch_jobs(self) -> int:
        switch = self.switch_jobs
        return sum(
            1
            for job in (*switch.queued.values(), *switch.running.values())
            if job.tag == SWITCH_TAG and job.state is not self.held_state
        )

    # -- running jobs ---------------------------------------------------------

    def _launch(self, job: Any, hosts: List[str]) -> None:
        """Start *job*, already placed on *hosts*, in its runner."""
        key = self._job_id(job)
        job.state = self.running_state
        job.start_time = self.sim.now
        self._running[key] = job
        self.switch_jobs.started(key)
        self._runners[key] = self.sim.spawn(
            self._run(job), name=f"{self.record_key_prefix}job:{key}"
        )
        self._trace_job("job.started", job, hosts=hosts)
        self._notify("started", job)

    def _run(self, job: Any) -> Iterator[Any]:
        """The runner: *job*'s payload, then :meth:`_finish`.

        A timed payload sleeps out the runtime not yet checkpointed; a
        script payload runs on the first allocated node's OS.  An
        interrupt (cancel, node loss, PBS walltime) ends it early; a
        kill (hard crash) ends it with no finish — recovery does that.
        """
        self._arm(job)
        try:
            first = next(iter(self._placed_on(job)))
            if not self._node_alive(first):
                # placed onto a node that silently died: nothing runs
                # there, nothing ever completes — park until the health
                # monitor fences the node and this runner is killed
                yield Event(self.sim)
            if job.script is None:
                remaining = job.runtime_s if job.runtime_s is not None else 0.0
                yield Timeout(max(0.0, remaining - job.checkpointed_s))
                outcome = self._outcome(0)
            else:
                os_instance = self._node_os.get(first)
                exit_code = 1
                if os_instance is not None:
                    result = yield from run_script(
                        os_instance, job.script, env=self._env(job)
                    )
                    exit_code = result.exit_code
                outcome = self._outcome(exit_code)
        except Interrupt as interrupt:
            outcome = self._interrupted(interrupt.cause)
        self._finish(job, outcome)

    def _release(self, job: Any) -> None:
        """Free the cores *job* holds on each of its nodes."""
        key = self._job_id(job)
        for host in self._placed_on(job):
            record = self.nodes[host]
            record.release(key)
            self._index.reindex(record)

    def _finish(self, job: Any, outcome: Any, cause: Optional[str] = None) -> None:
        fields = self._settle(job, outcome)
        job.end_time = self.sim.now
        self._release(job)
        key = self._job_id(job)
        self._running.pop(key, None)
        self.switch_jobs.ended(key)
        self._runners.pop(key, None)
        self._disarm(job)
        if cause is not None:
            self._trace_job("job.failed", job, cause=cause, **fields)
        else:
            self._trace_job("job.finished", job, **fields)
        if job.on_complete is not None:
            job.on_complete(job)
        self._notify("finished", job)
        self._try_schedule()

    def _trace_job(self, kind: str, job: Any,
                   cause: Optional[str] = None, **fields: Any) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                kind, cause=cause, scheduler=self.kind,
                jobid=self._job_id(job), **fields,
            )

    def _notify(self, event: str, job: Any) -> None:
        for observer in self.observers:
            observer(event, job)
