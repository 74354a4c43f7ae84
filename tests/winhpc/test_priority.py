"""HPC Pack priority-band queueing."""

import pytest

from repro.errors import SchedulerError
from repro.sched import JobRequest
from repro.simkernel import Simulator
from repro.winhpc import WinHpcScheduler, WinJobState
from repro.winhpc.job import PRIORITY_HIGHEST, PRIORITY_LOWEST, PRIORITY_NORMAL


@pytest.fixture()
def scheduler():
    sim = Simulator()
    sched = WinHpcScheduler(sim)
    sched.add_node("enode01", cores=4)
    sched.node_online("enode01")
    return sched


def submit(scheduler, **request):
    """Submit a :class:`JobRequest`; returns the native job."""
    return scheduler.get_job(scheduler.submit_request(JobRequest(**request)))


def fill(scheduler):
    return submit(scheduler, name="fill", cores=4, runtime_s=100.0)


def test_higher_priority_overtakes_queue(scheduler):
    fill(scheduler)
    normal = submit(scheduler, name="n", cores=4, runtime_s=10.0)
    urgent = submit(scheduler, name="u", cores=4, runtime_s=10.0,
                   priority=PRIORITY_HIGHEST)
    assert [j.name for j in scheduler.queued_jobs()] == ["u", "n"]
    scheduler.sim.run()
    assert urgent.start_time < normal.start_time


def test_fifo_within_same_priority(scheduler):
    fill(scheduler)
    first = submit(scheduler, name="a", cores=4, runtime_s=1.0)
    second = submit(scheduler, name="b", cores=4, runtime_s=1.0)
    assert [j.name for j in scheduler.queued_jobs()] == ["a", "b"]


def test_low_priority_goes_to_back(scheduler):
    fill(scheduler)
    normal = submit(scheduler, name="n", cores=4, runtime_s=1.0)
    low = submit(scheduler, name="l", cores=4, runtime_s=1.0, priority=PRIORITY_LOWEST)
    later_normal = submit(scheduler, name="n2", cores=4, runtime_s=1.0)
    assert [j.name for j in scheduler.queued_jobs()] == ["n", "n2", "l"]


def test_priority_validation(scheduler):
    with pytest.raises(SchedulerError, match="priority"):
        submit(scheduler, name="x", cores=1, priority=4001)
    with pytest.raises(SchedulerError, match="priority"):
        submit(scheduler, name="x", cores=1, priority=-1)


def test_default_priority_is_normal(scheduler):
    job = submit(scheduler, name="d", cores=1, runtime_s=1.0)
    assert job.priority == PRIORITY_NORMAL


def test_priority_still_respects_head_of_line_blocking(scheduler):
    fill(scheduler)
    big_urgent = submit(scheduler, name="big", cores=4, runtime_s=50.0,
                   priority=PRIORITY_HIGHEST)
    small_normal = submit(scheduler, name="small", cores=1, runtime_s=5.0)
    scheduler.sim.run(until=10.0)
    # urgent job heads the queue; the small job must not backfill past it
    assert big_urgent.state is WinJobState.QUEUED
    assert small_normal.state is WinJobState.QUEUED
