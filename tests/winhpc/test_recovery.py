"""WinHPC node-failure recovery: fence, requeue order, checkpoint, drain."""

from types import SimpleNamespace

import pytest

from repro.sched import JobRequest
from repro.simkernel import Simulator
from repro.winhpc import WinHpcScheduler
from repro.winhpc.job import PRIORITY_HIGHEST, WinJobState
from repro.winhpc.nodestate import WinNodeState


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def scheduler(sim):
    sched = WinHpcScheduler(sim)
    for i in range(1, 4):
        sched.add_node(f"enode{i:02d}", cores=4)
        sched.node_online(f"enode{i:02d}")
    return sched


def submit(scheduler, name="job", cores=4, runtime=100.0, **kw):
    """Submit a CORE-unit request; returns the native job."""
    return scheduler.get_job(scheduler.submit_request(
        JobRequest(name=name, cores=cores, runtime_s=runtime, **kw)
    ))


def host_of(job):
    return next(iter(job.allocation))


def test_fence_requeues_and_job_completes_elsewhere(sim, scheduler):
    job = submit(scheduler)
    victim = host_of(job)
    sim.run(until=30.0)
    out = scheduler.fence_node(victim)
    assert out == {"requeued": [job.job_id], "failed": []}
    assert job.state is WinJobState.RUNNING  # two other nodes are free
    assert host_of(job) != victim
    assert job.restarts == 1
    assert job.lost_work_s == 30.0
    assert scheduler.node(victim).state is WinNodeState.UNREACHABLE
    sim.run()
    assert job.state is WinJobState.FINISHED
    assert job.end_time == 130.0


def test_non_rerunnable_job_fails_terminally(sim, scheduler):
    """Satellite regression: switch jobs ride ``rerunnable=False`` — a
    fence must fail them, never replay them on another node."""
    job = submit(scheduler, rerunnable=False)
    sim.run(until=10.0)
    out = scheduler.fence_node(host_of(job))
    assert out == {"requeued": [], "failed": [job.job_id]}
    assert job.state is WinJobState.FAILED
    assert job.restarts == 0
    assert scheduler.jobs_failed_on_fence == 1


def test_retry_budget_exhaustion(sim, scheduler):
    scheduler.max_job_restarts = 1
    job = submit(scheduler)
    sim.run(until=10.0)
    assert scheduler.fence_node(host_of(job))["requeued"] == [job.job_id]
    sim.run(until=20.0)
    out = scheduler.fence_node(host_of(job))
    assert out["failed"] == [job.job_id]
    assert job.state is WinJobState.FAILED


def test_checkpoint_interval_credits_durable_work(sim, scheduler):
    scheduler.checkpoint_interval_s = 30.0
    job = submit(scheduler)
    sim.run(until=70.0)
    scheduler.fence_node(host_of(job))
    assert job.checkpointed_s == 60.0
    assert job.lost_work_s == 10.0
    sim.run()
    assert job.state is WinJobState.FINISHED
    assert job.end_time == 110.0  # only the remaining 40s reran


def test_requeue_respects_priority_bands(sim, scheduler):
    """A requeued normal-priority job may not jump a highest-priority
    job that is already waiting."""
    # fill the cluster
    filler = [submit(scheduler, name=f"fill{i}") for i in range(3)]
    victim_like = filler[0]
    urgent = submit(scheduler, name="urgent", priority=PRIORITY_HIGHEST)
    assert urgent.state is WinJobState.QUEUED
    sim.run(until=10.0)
    scheduler.fence_node(host_of(victim_like))
    # both now wait (the fence removed a node, it freed no cores), but
    # the requeued normal-priority victim sits BEHIND the urgent job
    assert victim_like.state is WinJobState.QUEUED
    assert [j.name for j in scheduler.queued_jobs()] == ["urgent", "fill0"]
    sim.run()
    assert urgent.state is WinJobState.FINISHED
    assert victim_like.state is WinJobState.FINISHED


def test_fast_rejoin_recovers_stranded_jobs(sim, scheduler):
    job = submit(scheduler)
    victim = host_of(job)
    sim.run(until=10.0)
    scheduler.node_crashed(victim)
    assert job.interrupted_at == 10.0
    sim.run(until=40.0)
    scheduler.node_online(victim)
    assert job.restarts == 1
    assert job.state is WinJobState.RUNNING
    assert job.lost_work_s == 10.0  # charged to the crash, not the rejoin
    sim.run()
    assert job.state is WinJobState.FINISHED


def test_cordon_drains_without_killing(sim, scheduler):
    job = submit(scheduler)
    host = host_of(job)
    scheduler.cordon_node(host)
    assert scheduler.node(host).state is WinNodeState.DRAINING
    assert job.state is WinJobState.RUNNING
    # 3 nodes x 4 cores minus the draining one: a 12-core job cannot start
    big = submit(scheduler, name="big", cores=12)
    assert big.state is WinJobState.QUEUED
    scheduler.uncordon_node(host)
    sim.run()
    assert job.state is WinJobState.FINISHED
    assert big.state is WinJobState.FINISHED


def test_job_on_silently_dead_node_parks_until_fenced(sim):
    scheduler = WinHpcScheduler(sim)
    scheduler.add_node("enode01", cores=4)
    scheduler.node_online("enode01", os_instance=SimpleNamespace(running=False))
    job = submit(scheduler)
    assert job.state is WinJobState.RUNNING
    sim.run(until=1000.0)
    assert job.state is WinJobState.RUNNING  # parked, not completing
    out = scheduler.fence_node("enode01")
    assert out["requeued"] == [job.job_id]
    assert job.state is WinJobState.QUEUED
    sim.run()
    assert job.state is WinJobState.QUEUED
