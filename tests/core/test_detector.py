"""Detector tests: the three Figure-6 states on both schedulers."""

import pytest

from repro.core.detector import PbsDetector, WinHpcDetector, parse_qstat_full
from repro.pbs import JobSpec, PbsCommands, PbsServer
from repro.sched import JobRequest
from repro.simkernel import Simulator
from repro.winhpc import WinHpcScheduler


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def pbs(sim):
    server = PbsServer(sim, first_jobid=1185)
    for i in range(1, 5):
        server.create_node(f"enode{i:02d}", np=4)
        server.node_up(f"enode{i:02d}")
    return server


@pytest.fixture()
def detector(pbs):
    return PbsDetector(pbs)


def all_down(pbs):
    for host in list(pbs.nodes):
        pbs.node_down(host)


def test_other_state_when_empty(detector):
    report = detector.check()
    assert report.wire == "00000none"
    assert report.debug[0] == "Other state"
    assert "R=0 nR=0" in report.text()


def test_running_no_queuing(detector, pbs):
    pbs.qsub(JobSpec(name="sleep", nodes=1, ppn=4, runtime_s=100.0))
    report = detector.check()
    assert report.wire == "00000none"
    assert report.debug[0] == "Job running, no queuing."
    assert "Job_Name=sleep" in report.text()
    assert report.running == 1


def test_stuck_state(detector, pbs):
    all_down(pbs)
    jobid = pbs.qsub(JobSpec(name="md", nodes=1, ppn=4, runtime_s=100.0))
    report = detector.check()
    assert report.wire == f"10004{jobid}"
    assert report.debug == ["Queue stuck", "R=0 nR=1"]
    assert report.message.needed_cpus == 4


def test_stuck_reports_first_queued_jobs_needs(detector, pbs):
    all_down(pbs)
    first = pbs.qsub(JobSpec(name="big", nodes=4, ppn=4, runtime_s=1.0))
    pbs.qsub(JobSpec(name="small", nodes=1, ppn=1, runtime_s=1.0))
    report = detector.check()
    assert report.message.needed_cpus == 16  # 4 nodes x ppn=4
    assert report.message.stuck_jobid == first
    assert report.queued == 2


def test_running_plus_queued_is_not_stuck(detector, pbs):
    pbs.qsub(JobSpec(name="fill", nodes=4, ppn=4, runtime_s=100.0))
    pbs.qsub(JobSpec(name="wait", nodes=4, ppn=4, runtime_s=100.0))
    report = detector.check()
    assert not report.message.stuck
    assert report.running == 1 and report.queued == 1


def test_switch_jobs_invisible_to_detector(detector, pbs):
    """release_1_node jobs must not count, or switching would feed back."""
    all_down(pbs)
    pbs.qsub(JobSpec(name="release_1_node", nodes=1, ppn=4, runtime_s=1.0))
    report = detector.check()
    assert report.wire == "00000none"


def test_parse_qstat_full_extracts_fields(pbs):
    pbs.qsub(JobSpec(name="sleep", nodes=2, ppn=4, runtime_s=50.0))
    jobs = parse_qstat_full(PbsCommands(pbs).qstat_f())
    assert len(jobs) == 1
    assert jobs[0]["Job_Name"] == "sleep"
    assert jobs[0]["job_state"] == "R"
    assert jobs[0]["Resource_List.nodes"] == "2:ppn=4"
    assert jobs[0]["Job_Id"].startswith("1185.")


def test_parse_qstat_full_empty():
    assert parse_qstat_full("") == []


# -- Windows side -------------------------------------------------------------


@pytest.fixture()
def win(sim):
    scheduler = WinHpcScheduler(sim)
    for i in range(1, 5):
        scheduler.add_node(f"enode{i:02d}", cores=4)
        scheduler.node_online(f"enode{i:02d}")
    return scheduler


@pytest.fixture()
def win_detector(win):
    return WinHpcDetector(win)


def win_all_down(win):
    for host in list(win.nodes):
        win.node_unreachable(host)


def test_win_other_state(win_detector):
    assert win_detector.check().wire == "00000none"


def test_win_running_state(win_detector, win):
    win.submit_request(JobRequest(name="render", cores=4, runtime_s=100.0))
    report = win_detector.check()
    assert report.wire == "00000none"
    assert report.running == 1


def test_win_stuck_core_job(win_detector, win):
    win_all_down(win)
    jobid = win.submit_request(
        JobRequest(name="render", cores=6, runtime_s=1.0)
    )
    report = win_detector.check()
    assert report.message.stuck
    assert report.message.needed_cpus == 6
    assert report.message.stuck_jobid == jobid


def test_win_stuck_node_unit_job_counts_cores(win_detector, win):
    win_all_down(win)
    win.submit_request(JobRequest(name="mdcs", nodes=2, runtime_s=1.0))
    report = win_detector.check()
    assert report.message.needed_cpus == 8  # 2 nodes x 4 cores


def test_win_switch_jobs_ignored(win_detector, win):
    win_all_down(win)
    win.submit_request(
        JobRequest(name="release_1_node", nodes=1, runtime_s=1.0,
                   tag="os-switch")
    )
    assert win_detector.check().wire == "00000none"
