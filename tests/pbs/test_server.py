"""PBS server: queueing, FIFO scheduling, node lifecycle."""

import pytest

from repro.errors import SchedulerError
from repro.pbs import JobSpec, JobState, PbsServer
from repro.pbs.nodes import PbsNodeState
from repro.pbs.server import KILLED_EXIT_STATUS
from repro.simkernel import Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def server(sim):
    srv = PbsServer(sim)
    for i in range(1, 5):
        srv.create_node(f"enode{i:02d}", np=4)
        srv.node_up(f"enode{i:02d}")
    return srv


def spec(name="job", nodes=1, ppn=4, runtime=100.0, **kw):
    return JobSpec(name=name, nodes=nodes, ppn=ppn, runtime_s=runtime, **kw)


def test_jobid_format_and_sequence(server):
    j1 = server.qsub(spec())
    j2 = server.qsub(spec())
    assert j1.endswith(".eridani.qgg.hud.ac.uk")
    assert int(j2.split(".")[0]) == int(j1.split(".")[0]) + 1


def test_owner_format(server):
    jobid = server.qsub(spec(), owner="sliang")
    assert server.jobs[jobid].owner == "sliang@eridani.qgg.hud.ac.uk"


def test_job_runs_and_completes(sim, server):
    jobid = server.qsub(spec(runtime=50.0))
    job = server.jobs[jobid]
    assert job.state is JobState.RUNNING  # started immediately, nodes free
    sim.run()
    assert job.state is JobState.COMPLETED
    assert job.exit_status == 0
    assert job.end_time == 50.0
    assert job.wait_time_s == 0.0


def test_allocation_prefers_highest_node(server):
    jobid = server.qsub(spec())
    job = server.jobs[jobid]
    hosts = {h for h, _ in job.exec_slots}
    assert hosts == {"enode04.eridani.qgg.hud.ac.uk"}


def test_exec_host_cores_descend(server):
    job = server.jobs[server.qsub(spec(ppn=4))]
    cores = [c for _, c in job.exec_slots]
    assert cores == [3, 2, 1, 0]  # Figure 8 order


def test_fifo_queueing_when_full(sim, server):
    ids = [server.qsub(spec(name=f"j{i}", runtime=100.0)) for i in range(6)]
    states = [server.jobs[j].state for j in ids]
    assert states[:4] == [JobState.RUNNING] * 4
    assert states[4:] == [JobState.QUEUED] * 2
    sim.run(until=101.0)
    assert server.jobs[ids[4]].state is JobState.RUNNING
    sim.run()
    assert all(server.jobs[j].state is JobState.COMPLETED for j in ids)


def test_head_of_line_blocking_no_backfill(sim, server):
    """Strict FCFS: a big job at the head blocks small jobs behind it."""
    server.qsub(spec(name="fill1", nodes=4, ppn=4, runtime=100.0))
    big = server.qsub(spec(name="big", nodes=4, ppn=4, runtime=10.0))
    small = server.qsub(spec(name="small", nodes=1, ppn=1, runtime=10.0))
    assert server.jobs[big].state is JobState.QUEUED
    assert server.jobs[small].state is JobState.QUEUED  # would fit, but FCFS
    sim.run(until=50.0)
    assert server.jobs[small].state is JobState.QUEUED


def test_multi_node_job_spans_nodes(server):
    job = server.jobs[server.qsub(spec(nodes=2, ppn=4))]
    hosts = {h for h, _ in job.exec_slots}
    assert len(hosts) == 2
    assert len(job.exec_slots) == 8


def test_core_sharing_on_one_node(server):
    j1 = server.jobs[server.qsub(spec(ppn=2))]
    j2 = server.jobs[server.qsub(spec(ppn=2))]
    assert j1.state is JobState.RUNNING and j2.state is JobState.RUNNING
    # both land on enode04 (highest first, still has 2 free cores)
    assert {h for h, _ in j1.exec_slots} == {h for h, _ in j2.exec_slots}


def test_node_down_kills_jobs(sim, server):
    jobid = server.qsub(spec(runtime=1000.0))
    job = server.jobs[jobid]
    host = job.exec_slots[0][0]
    sim.run(until=10.0)
    server.node_down(host)
    sim.run(until=11.0)
    assert job.state is JobState.COMPLETED
    assert job.exit_status == KILLED_EXIT_STATUS
    assert server.node(host).state is PbsNodeState.DOWN


def test_node_down_releases_waiting_work_elsewhere(sim, server):
    ids = [server.qsub(spec(name=f"j{i}", runtime=100.0)) for i in range(5)]
    victim_host = server.jobs[ids[0]].exec_slots[0][0]
    sim.run(until=1.0)
    server.node_down(victim_host)
    sim.run(until=2.0)
    # queued 5th job cannot start (only 3 nodes up, all busy)
    assert server.jobs[ids[4]].state is JobState.QUEUED
    sim.run()
    assert server.jobs[ids[4]].state is JobState.COMPLETED


def test_node_up_triggers_scheduling(sim, server):
    for host in list(server.nodes):
        server.node_down(host)
    jobid = server.qsub(spec(runtime=10.0))
    assert server.jobs[jobid].state is JobState.QUEUED
    server.node_up("enode01")
    assert server.jobs[jobid].state is JobState.RUNNING


def test_qdel_queued_job(sim, server):
    for i in range(4):
        server.qsub(spec(name=f"fill{i}", runtime=100.0))
    victim = server.qsub(spec(name="victim", runtime=100.0))
    server.cancel(victim)  # the server side of qdel
    assert server.jobs[victim].state is JobState.COMPLETED
    assert server.jobs[victim].exit_status == KILLED_EXIT_STATUS
    assert victim not in server.queue_order


def test_qdel_running_job(sim, server):
    jobid = server.qsub(spec(runtime=1000.0))
    sim.run(until=5.0)
    server.cancel(jobid)
    sim.run(until=6.0)
    assert server.jobs[jobid].state is JobState.COMPLETED
    assert server.free_cores() == 16


def test_qdel_completed_job_rejected(sim, server):
    jobid = server.qsub(spec(runtime=1.0))
    sim.run()
    with pytest.raises(SchedulerError):
        server.cancel(jobid)


def test_ppn_larger_than_any_node_rejected(server):
    with pytest.raises(SchedulerError):
        server.qsub(spec(ppn=8))


def test_bad_resource_request_rejected(server):
    with pytest.raises(SchedulerError):
        server.qsub(JobSpec(nodes=0, ppn=1))


def test_duplicate_node_rejected(server):
    with pytest.raises(SchedulerError):
        server.create_node("enode01", np=4)


def test_unknown_node_rejected(server):
    with pytest.raises(SchedulerError):
        server.node_up("enode99")


def test_observers_see_lifecycle(sim, server):
    events = []
    server.observers.append(lambda ev, job: events.append((ev, job.name)))
    server.qsub(spec(name="watched", runtime=5.0))
    sim.run()
    assert events == [
        ("submitted", "watched"),
        ("started", "watched"),
        ("finished", "watched"),
    ]


def test_free_cores_accounting(sim, server):
    assert server.free_cores() == 16
    server.qsub(spec(ppn=3, runtime=10.0))
    assert server.free_cores() == 13
    sim.run()
    assert server.free_cores() == 16
