"""Walltime enforcement."""

import pytest

from repro.pbs import JobSpec, JobState, PbsServer
from repro.pbs.server import KILLED_EXIT_STATUS, WALLTIME_EXIT_STATUS
from repro.simkernel import Simulator


@pytest.fixture()
def server():
    sim = Simulator()
    srv = PbsServer(sim)
    srv.create_node("enode01", np=4)
    srv.node_up("enode01")
    return srv


def test_job_within_walltime_completes_normally(server):
    jobid = server.qsub(
        JobSpec(name="ok", ppn=4, runtime_s=100.0, walltime_s=200.0)
    )
    server.sim.run()
    job = server.jobs[jobid]
    assert job.exit_status == 0
    assert job.end_time == 100.0


def test_job_exceeding_walltime_is_killed(server):
    jobid = server.qsub(
        JobSpec(name="hog", ppn=4, runtime_s=1000.0, walltime_s=300.0)
    )
    server.sim.run()
    job = server.jobs[jobid]
    assert job.state is JobState.COMPLETED
    assert job.exit_status == WALLTIME_EXIT_STATUS
    assert job.end_time == 300.0
    assert server.free_cores() == 4  # cores released


def test_walltime_kill_frees_cores_for_next_job(server):
    server.qsub(JobSpec(name="hog", ppn=4, runtime_s=9999.0, walltime_s=60.0))
    nxt = server.qsub(JobSpec(name="next", ppn=4, runtime_s=10.0))
    server.sim.run()
    job = server.jobs[nxt]
    assert job.start_time == 60.0
    assert job.exit_status == 0


def test_qdel_still_reports_killed_not_walltime(server):
    jobid = server.qsub(
        JobSpec(name="victim", ppn=4, runtime_s=1000.0, walltime_s=2000.0)
    )
    server.sim.run(until=10.0)
    server.cancel(jobid)  # the server side of qdel
    server.sim.run(until=20.0)
    assert server.jobs[jobid].exit_status == KILLED_EXIT_STATUS


def test_no_walltime_means_no_limit(server):
    jobid = server.qsub(JobSpec(name="free", ppn=4, runtime_s=100_000.0))
    server.sim.run()
    assert server.jobs[jobid].exit_status == 0


def test_walltime_rendered_in_qstat(server):
    from repro.pbs import PbsCommands

    server.qsub(JobSpec(name="w", ppn=1, runtime_s=10.0, walltime_s=5415.0))
    text = PbsCommands(server).qstat_f()
    assert "Resource_List.walltime = 01:30:15" in text


def test_walltime_parsed_from_script(server):
    jobid = server.qsub(
        "#PBS -l nodes=1:ppn=1,walltime=00:00:30\nsleep 99\n"
    )
    assert server.jobs[jobid].walltime_s == 30.0
