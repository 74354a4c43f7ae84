"""The scheduler-personality contract, run against every personality.

The control plane (middleware, switch pipeline, health fencing,
elasticity, recorder, energy meter) speaks only
:class:`repro.sched.SchedulerPersonality`.  This battery is the seam's
executable specification: one parametrised test per obligation, run
identically against PBS, WinHPC and SLURM.  A fourth personality earns
its place by passing this file unmodified.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.pbs.job import JobState
from repro.pbs.nodes import PbsNodeState
from repro.pbs.server import KILLED_EXIT_STATUS
from repro.sched import (
    SCHEDULER_KINDS,
    JobRequest,
    SchedulerPersonality,
    create_detector,
    create_scheduler,
)
from repro.simkernel import Simulator
from repro.slurm.job import SlurmJobState
from repro.slurm.nodestate import SlurmNodeState
from repro.winhpc.job import WinJobState
from repro.winhpc.nodestate import WinNodeState

NUM_NODES = 3
CORES = 4

#: How each personality records, in its own vocabulary, a job that a
#: fence killed, an up node, a fenced node and a cordoned node.
KILLED = {
    "pbs": (JobState.COMPLETED, KILLED_EXIT_STATUS),
    "winhpc": WinJobState.FAILED,
    "slurm": SlurmJobState.FAILED,
}
UP_NODE = {
    "pbs": PbsNodeState.FREE,
    "winhpc": WinNodeState.ONLINE,
    "slurm": SlurmNodeState.UP,
}
FENCED_NODE = {
    "pbs": PbsNodeState.DOWN,
    "winhpc": WinNodeState.UNREACHABLE,
    "slurm": SlurmNodeState.DOWN,
}
CORDONED_NODE = {
    "pbs": PbsNodeState.OFFLINE,
    "winhpc": WinNodeState.DRAINING,
    "slurm": SlurmNodeState.DRAIN,
}


def build(kind, num_nodes=NUM_NODES, cores=CORES, os_instance=None):
    """A personality with *num_nodes* online nodes of *cores* cores.

    Node observers are attached *before* bring-up so the join events are
    captured; returns ``(sim, scheduler, node_events)``.
    """
    sim = Simulator()
    scheduler = create_scheduler(kind, sim, head_name="head.cluster.test")
    node_events = []
    scheduler.node_observers.append(
        lambda event, host: node_events.append((event, host))
    )
    for i in range(1, num_nodes + 1):
        join(scheduler, f"n{i:02d}", cores, os_instance)
    return sim, scheduler, node_events


def join(scheduler, name, cores=CORES, os_instance=None):
    """Register node *name* and report its daemon in, the native way."""
    if scheduler.kind == "pbs":
        scheduler.create_node(name, np=cores)
        scheduler.node_up(name, os_instance)
    else:
        scheduler.add_node(name, cores=cores)
        scheduler.node_online(name, os_instance)


def rejoin(scheduler, name):
    """The daemon of an already registered node reports in again."""
    if scheduler.kind == "pbs":
        scheduler.node_up(name)
    else:
        scheduler.node_online(name)


def submit(scheduler, name="job", runtime=100.0):
    """A whole-node job; returns ``(jobid, job)``."""
    jobid = scheduler.submit_request(
        JobRequest(name=name, cores=CORES, runtime_s=runtime)
    )
    return jobid, scheduler.get_job(jobid)


def host_of(job):
    return next(iter(job.allocation_by_host()))


def is_running(scheduler, job):
    return any(j is job for j in scheduler.running_jobs())


def is_queued(scheduler, job):
    return any(j is job for j in scheduler.queued_jobs())


def ids(jobids):
    return [str(jobid) for jobid in jobids]


def native_end(scheduler, job):
    """The job's terminal record as its own scheduler keeps it."""
    if scheduler.kind == "pbs":
        return job.state, job.exit_status
    return job.state


@pytest.fixture(params=SCHEDULER_KINDS)
def kind(request):
    return request.param


def test_structural_protocol_and_identity(kind):
    _, scheduler, _ = build(kind)
    assert isinstance(scheduler, SchedulerPersonality)
    assert scheduler.kind == kind
    assert scheduler.display_name
    assert scheduler.join_event in ("up", "online")
    assert scheduler.record_key_prefix
    assert scheduler.default_owner
    assert scheduler.observers == []


def test_bring_up_reports_the_join_event(kind):
    _, scheduler, node_events = build(kind)
    joins = [host for event, host in node_events
             if event == scheduler.join_event]
    assert joins == [f"n{i:02d}" for i in range(1, NUM_NODES + 1)]
    assert scheduler.online_node_count() == NUM_NODES
    assert scheduler.idle_node_count() == NUM_NODES
    assert scheduler.free_cores() == NUM_NODES * CORES


def test_submit_runs_and_reports_the_uniform_surface(kind):
    sim, scheduler, _ = build(kind)
    events = []
    scheduler.observers.append(lambda ev, job: events.append((ev, job.name)))

    jobid = scheduler.submit_request(
        JobRequest(name="probe", cores=CORES, runtime_s=60.0)
    )
    assert isinstance(jobid, str)

    job = scheduler.get_job(jobid)
    assert job is not None
    assert job.name == "probe"
    assert job.key  # recorder/energy key stub
    assert job.submitted_at == sim.now
    assert job.cores_submitted() == CORES
    assert job.cores_running() == CORES
    assert sum(job.allocation_by_host().values()) == CORES

    assert [j.name for j in scheduler.running_jobs()] == ["probe"]
    assert scheduler.queued_jobs() == []
    assert scheduler.free_cores() == (NUM_NODES - 1) * CORES
    assert scheduler.idle_node_count() == NUM_NODES - 1

    sim.run()
    assert events == [
        ("submitted", "probe"), ("started", "probe"), ("finished", "probe"),
    ]
    assert scheduler.free_cores() == NUM_NODES * CORES


def test_default_owner_is_applied(kind):
    _, scheduler, _ = build(kind)
    jobid = scheduler.submit_request(JobRequest(name="anon", runtime_s=5.0))
    job = scheduler.get_job(jobid)
    assert scheduler.default_owner in str(job.owner)


def test_cordon_blocks_and_uncordon_starts(kind):
    _, scheduler, _ = build(kind)
    for i in range(1, NUM_NODES + 1):
        scheduler.cordon_node(f"n{i:02d}")
    assert scheduler.idle_node_count() == 0

    jobid = scheduler.submit_request(
        JobRequest(name="parked", cores=1, runtime_s=60.0)
    )
    assert [j.name for j in scheduler.queued_jobs()] == ["parked"]
    assert scheduler.running_jobs() == []

    scheduler.uncordon_node("n02")
    job = scheduler.get_job(jobid)
    assert [j.name for j in scheduler.running_jobs()] == ["parked"]
    assert list(job.allocation_by_host()) == ["n02"]


def test_fence_requeues_rerunnable_work(kind):
    sim, scheduler, node_events = build(kind)
    jobid = scheduler.submit_request(
        JobRequest(name="movable", cores=CORES, runtime_s=60.0)
    )
    job = scheduler.get_job(jobid)
    host = next(iter(job.allocation_by_host()))
    sim.run(until=30.0)

    out = scheduler.fence_node(host, cause="contract test")
    assert [str(j) for j in out["requeued"]] == [jobid]
    assert out["failed"] == []
    assert scheduler.online_node_count() == NUM_NODES - 1
    assert scheduler.node(host).state is FENCED_NODE[kind]
    assert scheduler.requeues == 1
    assert job.restarts == 1
    assert job.lost_work_s == 30.0  # no checkpointing: all progress lost
    # the loss was reported to node observers
    assert node_events[-1][1] == host
    assert node_events[-1][0] != scheduler.join_event

    # the survivor fleet reruns the job from scratch to completion
    sim.run()
    assert job.end_time == 90.0
    assert host not in job.allocation_by_host()


def test_fence_fails_non_rerunnable_work(kind):
    sim, scheduler, _ = build(kind)
    jobid = scheduler.submit_request(
        JobRequest(name="pinned", cores=CORES, runtime_s=600.0,
                   rerunnable=False)
    )
    job = scheduler.get_job(jobid)
    host = next(iter(job.allocation_by_host()))
    out = scheduler.fence_node(host, cause="contract test")
    assert out["requeued"] == []
    assert [str(j) for j in out["failed"]] == [jobid]
    assert scheduler.running_jobs() == []
    assert native_end(scheduler, job) == KILLED[kind]
    assert job.restarts == 0
    assert scheduler.jobs_failed_on_fence == 1
    sim.run()
    assert native_end(scheduler, job) == KILLED[kind]  # nothing resurrects it


def test_switch_jobs_are_tracked_and_cancellable(kind):
    _, scheduler, _ = build(kind)
    script = (
        "#PBS -N release_1_node\n#PBS -l nodes=1\nshutdown -r now\n"
        if kind == "pbs"
        else "shutdown /r /t 0\n"
    )
    assert len(scheduler.switch_jobs.queued) == 0
    # fill the fleet so the switch job queues (cancel_if_queued contract)
    for i in range(NUM_NODES):
        scheduler.submit_request(
            JobRequest(name=f"fill-{i}", cores=CORES, runtime_s=600.0)
        )
    jobid = scheduler.submit_switch_job(script, owner="contract")
    assert isinstance(jobid, str)
    assert len(scheduler.switch_jobs.queued) == 1
    # switch jobs are control-plane traffic, not workload
    assert all(j.name != "release_1_node" for j in scheduler.running_jobs())
    assert scheduler.cancel_if_queued(jobid) is True
    assert len(scheduler.switch_jobs.queued) == 0
    assert scheduler.cancel_if_queued(jobid) is False


def test_create_detector_reports_the_queue(kind):
    _, scheduler, _ = build(kind)
    scheduler.submit_request(JobRequest(name="seen", cores=1, runtime_s=60.0))
    detector = create_detector(scheduler)
    report = detector.check()
    assert report.running == 1
    assert report.queued == 0
    assert report.wire  # non-empty wire message for the communicator


# -- node-failure recovery ------------------------------------------------


def test_retry_budget_exhaustion_fails_the_job(kind):
    sim, scheduler, _ = build(kind)
    scheduler.max_job_restarts = 1
    jobid, job = submit(scheduler)
    sim.run(until=10.0)
    assert ids(scheduler.fence_node(host_of(job))["requeued"]) == [jobid]
    sim.run(until=20.0)
    assert is_running(scheduler, job)  # rerunning on a surviving node
    out = scheduler.fence_node(host_of(job))
    assert out["requeued"] == [] and ids(out["failed"]) == [jobid]
    assert native_end(scheduler, job) == KILLED[kind]
    assert job.restarts == 1
    assert job.end_time == 20.0
    assert scheduler.requeues == 1
    assert scheduler.jobs_failed_on_fence == 1
    assert scheduler.running_jobs() == scheduler.queued_jobs() == []


def test_checkpoint_interval_credits_durable_work(kind):
    sim, scheduler, _ = build(kind)
    scheduler.checkpoint_interval_s = 30.0
    jobid, job = submit(scheduler)
    sim.run(until=70.0)
    scheduler.fence_node(host_of(job))
    # floor(70/30)*30 = 60s durable, 10s lost
    assert job.checkpointed_s == 60.0
    assert job.lost_work_s == 10.0
    sim.run(until=75.0)
    # 5s into the rerun: no whole interval more, the credit stays 60s
    scheduler.fence_node(host_of(job))
    assert job.checkpointed_s == 60.0
    assert job.lost_work_s == 15.0
    sim.run()
    # the third run only needs the remaining 40s: 75 + 40
    assert job.end_time == 115.0


def test_checkpoint_credit_is_capped_at_the_runtime_owed(kind):
    """A job parked on a silently dead node accrues elapsed time but
    no progress: its credit never exceeds the runtime it still owes."""
    sim, scheduler, _ = build(
        kind, num_nodes=1, os_instance=SimpleNamespace(running=False)
    )
    scheduler.checkpoint_interval_s = 30.0
    jobid, job = submit(scheduler, runtime=50.0)
    sim.run(until=70.0)
    join(scheduler, "n02")
    assert ids(scheduler.fence_node("n01")["requeued"]) == [jobid]
    # floor(70/30)*30 = 60s would be credited; only 50s are owed
    assert job.checkpointed_s == 50.0
    assert job.lost_work_s == 20.0
    sim.run()
    assert job.end_time == 70.0  # nothing left to run on n02


def test_fast_rejoin_recovers_stranded_jobs(kind):
    """A node that crashes and reboots before the fence: its daemon
    reports in with old jobs still booked; the rejoin reconciles them."""
    sim, scheduler, _ = build(kind)
    jobid, job = submit(scheduler)
    victim = host_of(job)
    sim.run(until=10.0)
    # kill the runner the way the crash hook does, then rejoin directly
    scheduler.node_crashed(victim)
    assert job.interrupted_at == 10.0
    sim.run(until=40.0)
    assert is_running(scheduler, job)  # nobody has noticed yet
    rejoin(scheduler, victim)
    assert job.restarts == 1
    assert is_running(scheduler, job)
    # lost work is charged to the crash instant, not the rejoin instant
    assert job.lost_work_s == 10.0
    sim.run()
    assert job.end_time == 140.0  # a full rerun from the rejoin


def test_cordon_drains_without_killing(kind):
    sim, scheduler, _ = build(kind)
    jobid, job = submit(scheduler)
    host = host_of(job)
    scheduler.cordon_node(host)
    assert scheduler.node(host).state is CORDONED_NODE[kind]
    assert is_running(scheduler, job)  # running work is untouched
    # a job wanting every node cannot start while one is cordoned
    big = scheduler.get_job(scheduler.submit_request(
        JobRequest(name="big", nodes=NUM_NODES, ppn=CORES, runtime_s=10.0)
    ))
    assert is_queued(scheduler, big)
    sim.run()
    assert job.end_time == 100.0
    assert is_queued(scheduler, big)  # the cordon outlives the job
    scheduler.uncordon_node(host)
    sim.run()
    assert big.end_time == 110.0


def test_node_record_follows_up_cordon_uncordon_down(kind):
    """The shared node record and the kept counts agree with the native
    state through every node transition, with a 1-core job running."""
    sim, scheduler, _ = build(kind, num_nodes=1)
    record = scheduler.node("n01")

    def agree(state, cores_in_use):
        up = state is UP_NODE[kind]
        assert record.state is state
        assert record.online is up
        assert record.idle is (up and cores_in_use == 0)
        assert record.available_cores == (CORES - cores_in_use if up else 0)
        assert scheduler.online_node_count() == int(up)
        assert scheduler.idle_node_count() == int(record.idle)
        assert scheduler.node_idle("n01") is record.idle
        assert scheduler.free_cores() == record.available_cores

    agree(UP_NODE[kind], 0)
    jobid = scheduler.submit_request(
        JobRequest(name="one", cores=1, runtime_s=100.0)
    )
    agree(UP_NODE[kind], 1)
    scheduler.cordon_node("n01")
    agree(CORDONED_NODE[kind], 1)
    scheduler.uncordon_node("n01")
    agree(UP_NODE[kind], 1)
    scheduler.node_unreachable("n01")
    agree(FENCED_NODE[kind], 0)
    assert record.allocations == {}
    sim.run(until=1.0)  # the node's loss reaches the job's runner
    assert not is_running(scheduler, scheduler.get_job(jobid))
    rejoin(scheduler, "n01")
    agree(UP_NODE[kind], 0)


def test_job_on_silently_dead_node_parks_until_fenced(kind):
    """Zombie-start guard: a job placed onto a node whose OS died
    silently must not fake progress — it parks until the fence."""
    sim, scheduler, _ = build(
        kind, num_nodes=1, os_instance=SimpleNamespace(running=False)
    )
    jobid, job = submit(scheduler)
    assert is_running(scheduler, job)
    sim.run(until=1000.0)
    assert is_running(scheduler, job)  # parked, not completing
    assert job.end_time is None
    assert ids(scheduler.fence_node("n01")["requeued"]) == [jobid]
    assert is_queued(scheduler, job)  # no nodes left: waits
    sim.run()
    assert is_queued(scheduler, job)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(SCHEDULER_KINDS),
    cores=st.lists(st.integers(min_value=1, max_value=CORES),
                   min_size=1, max_size=8),
    fence_index=st.integers(min_value=1, max_value=NUM_NODES),
)
def test_fencing_never_loses_rerunnable_work(kind, cores, fence_index):
    """Property: fencing any node under any rerunnable load fails
    nothing, and every submitted job remains tracked."""
    _, scheduler, _ = build(kind)
    jobids = [
        scheduler.submit_request(
            JobRequest(name=f"w{i}", cores=c, runtime_s=600.0)
        )
        for i, c in enumerate(cores)
    ]
    out = scheduler.fence_node(f"n{fence_index:02d}", cause="property")
    assert out["failed"] == []
    for jobid in jobids:
        assert scheduler.get_job(jobid) is not None
    states = [str(scheduler.get_job(j).state) for j in jobids]
    assert len(states) == len(cores)
