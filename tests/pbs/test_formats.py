"""pbsnodes / qstat -f output fidelity (Figures 7-8)."""

import re

import pytest

from repro.pbs import JobSpec, PbsCommands, PbsServer
from repro.pbs.formats import render_time, render_unix_time
from repro.simkernel import Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def server(sim):
    srv = PbsServer(sim, first_jobid=1185)
    for i in range(1, 17):
        srv.create_node(f"enode{i:02d}", np=4)
        srv.node_up(f"enode{i:02d}")
    return srv


@pytest.fixture()
def pbs(server):
    return PbsCommands(server)


def test_render_time_matches_torque_style():
    text = render_time(0.0)
    assert re.fullmatch(r"\w{3} \w{3} \d{2} \d{2}:\d{2}:\d{2} 2010", text)
    assert render_time(0.0) == "Fri Apr 16 08:00:00 2010"


def test_render_unix_time_monotonic():
    assert render_unix_time(10.0) == render_unix_time(0.0) + 10


def test_pbsnodes_free_node_stanza(pbs):
    text = pbs.pbsnodes()
    assert "enode01.eridani.qgg.hud.ac.uk" in text
    stanza = text.split("\n\n")[0]
    assert "     state = free" in stanza
    assert "     np = 4" in stanza
    assert "     properties = all" in stanza
    assert "     ntype = cluster" in stanza
    assert "opsys=linux" in stanza
    assert "uname=Linux enode01.eridani.qgg.hud.ac.uk 2.6.18-164.el5" in stanza
    assert "ncpus=4" in stanza
    assert re.search(r"rectime=\d+", stanza)


def test_pbsnodes_shows_all_16_nodes(pbs):
    text = pbs.pbsnodes()
    assert text.count("ntype = cluster") == 16


def test_pbsnodes_down_node_has_no_status(pbs, server):
    server.node_down("enode01")
    stanza = pbs.pbsnodes().split("\n\n")[0]
    assert "state = down" in stanza
    assert "status =" not in stanza


def test_pbsnodes_busy_node_lists_jobs(pbs, server, sim):
    jobid = server.qsub(JobSpec(name="sleep", nodes=1, ppn=4, runtime_s=100.0))
    text = pbs.pbsnodes()
    busy = [s for s in text.split("\n\n") if "job-exclusive" in s]
    assert len(busy) == 1
    assert f"3/{jobid}" in busy[0]


def test_qstat_f_figure8_fields(pbs, server, sim):
    server.qsub(
        JobSpec(name="release_1_node", nodes=1, ppn=4, runtime_s=100.0,
                join_oe=True, output_path="reboot_log.out"),
        owner="sliang",
    )
    text = pbs.qstat_f()
    assert text.startswith("Job Id: 1185.eridani.qgg.hud.ac.uk")
    assert "    Job_Name = release_1_node" in text
    assert "    Job_Owner = sliang@eridani.qgg.hud.ac.uk" in text
    assert "    job_state = R" in text
    assert "    queue = default" in text
    assert "    server = eridani.qgg.hud.ac.uk" in text
    assert "    Resource_List.nodes = 1:ppn=4" in text
    assert re.search(r"    qtime = \w{3} \w{3} \d{2}", text)
    assert "PBS_O_HOME=/home/sliang" in text
    assert "PBS_O_LANG=en_US.UTF-8" in text
    # exec_host in Figure-8 shape: host/3+host/2+host/1+host/0
    m = re.search(r"    exec_host = (\S+)", text)
    host = "enode16.eridani.qgg.hud.ac.uk"
    assert m.group(1) == f"{host}/3+{host}/2+{host}/1+{host}/0"


def test_qstat_f_hides_completed_by_default(pbs, server, sim):
    jobid = server.qsub(JobSpec(name="quick", runtime_s=1.0))
    sim.run()
    assert pbs.qstat_f() == ""
    assert server.jobs[jobid].exit_status == 0


def test_qstat_f_multiple_jobs_sorted(pbs, server):
    server.qsub(JobSpec(name="a", nodes=16, ppn=4, runtime_s=10.0))
    server.qsub(JobSpec(name="b", runtime_s=10.0))
    text = pbs.qstat_f()
    assert text.index("Job Id: 1185") < text.index("Job Id: 1186")
    assert "    job_state = Q" in text  # second job queued
