"""Windows HPC scheduler tests."""

import pytest

from repro.errors import SchedulerError
from repro.sched import JobRequest
from repro.simkernel import Simulator
from repro.winhpc import WinHpcScheduler, WinJobState, WinNodeState


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def scheduler(sim):
    sched = WinHpcScheduler(sim)
    for i in range(1, 5):
        sched.add_node(f"enode{i:02d}", cores=4)
        sched.node_online(f"enode{i:02d}")
    return sched


def submit(scheduler, name="job", cores=4, runtime=100.0, **kw):
    """Submit a request (``nodes=`` for whole machines); returns the job."""
    return scheduler.get_job(scheduler.submit_request(
        JobRequest(name=name, cores=cores, runtime_s=runtime, **kw)
    ))


def test_job_ids_increment(scheduler):
    j1 = submit(scheduler)
    j2 = submit(scheduler)
    assert (j1.job_id, j2.job_id) == (1, 2)


def test_core_job_runs_and_finishes(sim, scheduler):
    job = submit(scheduler, cores=4, runtime=60.0)
    assert job.state is WinJobState.RUNNING
    sim.run()
    assert job.state is WinJobState.FINISHED
    assert job.end_time == 60.0
    assert job.wait_time_s == 0.0


def test_core_jobs_pack_busiest_first(sim, scheduler):
    j1 = submit(scheduler, cores=2, runtime=100.0)
    j2 = submit(scheduler, cores=2, runtime=100.0)
    # second job fills the same node before opening a fresh one
    assert list(j1.allocation) == list(j2.allocation)


def test_core_job_spans_nodes_when_needed(scheduler):
    job = submit(scheduler, cores=10, runtime=10.0)
    assert job.cores_running() == 10
    assert len(job.allocation) >= 3


def test_node_unit_job_needs_idle_machines(sim, scheduler):
    filler = submit(scheduler, cores=1, runtime=100.0)  # one core busy
    node_job = submit(scheduler, nodes=4, runtime=10.0)
    assert node_job.state is WinJobState.QUEUED  # only 3 idle machines
    sim.run(until=101.0)
    assert node_job.state is WinJobState.RUNNING
    assert node_job.cores_running() == 16


def test_node_unit_allocates_highest_hostname_first(scheduler):
    job = submit(scheduler, nodes=1, runtime=10.0)
    assert list(job.allocation) == ["enode04"]


def test_fifo_head_of_line_blocking(sim, scheduler):
    submit(scheduler, cores=16, runtime=100.0)
    big = submit(scheduler, cores=16, runtime=10.0)
    small = submit(scheduler, cores=1, runtime=10.0)
    assert big.state is WinJobState.QUEUED
    assert small.state is WinJobState.QUEUED  # no backfill
    sim.run()
    assert small.state is WinJobState.FINISHED


def test_node_unreachable_cancels_jobs(sim, scheduler):
    job = submit(scheduler, nodes=1, runtime=1000.0)
    host = next(iter(job.allocation))
    sim.run(until=5.0)
    scheduler.node_unreachable(host)
    sim.run(until=6.0)
    assert job.state is WinJobState.CANCELED
    assert scheduler.node(host).state is WinNodeState.UNREACHABLE


def test_node_online_triggers_scheduling(sim, scheduler):
    for host in list(scheduler.nodes):
        scheduler.node_unreachable(host)
    job = submit(scheduler, cores=2, runtime=10.0)
    assert job.state is WinJobState.QUEUED
    scheduler.node_online("enode02")
    assert job.state is WinJobState.RUNNING


def test_cancel_queued_and_running(sim, scheduler):
    filler = submit(scheduler, cores=16, runtime=100.0)
    queued = submit(scheduler, cores=1, runtime=10.0)
    scheduler.cancel(queued.job_id)
    assert queued.state is WinJobState.CANCELED
    scheduler.cancel(filler.job_id)
    sim.run(until=1.0)
    assert filler.state is WinJobState.CANCELED
    assert scheduler.free_cores() == 16


def test_cancel_finished_rejected(sim, scheduler):
    job = submit(scheduler, runtime=1.0)
    sim.run()
    with pytest.raises(SchedulerError):
        scheduler.cancel(job.job_id)


def test_oversized_requests_rejected(scheduler):
    with pytest.raises(SchedulerError):
        submit(scheduler, cores=17)
    with pytest.raises(SchedulerError):
        submit(scheduler, nodes=5)
    with pytest.raises(SchedulerError):
        submit(scheduler, cores=0)


def test_duplicate_node_rejected(scheduler):
    with pytest.raises(SchedulerError):
        scheduler.add_node("enode01", cores=4)


def test_script_job_without_node_os_fails(sim, scheduler):
    job = submit(scheduler, name="switch", nodes=1,
                   script="shutdown /r /t 0\n")
    sim.run()
    assert job.state is WinJobState.FAILED


def test_observers(sim, scheduler):
    events = []
    scheduler.observers.append(lambda ev, job: events.append((ev, job.name)))
    submit(scheduler, name="w", runtime=5.0)
    sim.run()
    assert events == [("submitted", "w"), ("started", "w"), ("finished", "w")]
