"""Direct tests for small public helpers not covered elsewhere."""

import pytest

from repro.boot.pxelinux import default_config_path
from repro.oslayer.linux import standalone_menu_lst
from repro.pbs import JobSpec, PbsServer
from repro.pbs.formats import render_pbsnodes_entry, render_qstat_full_entry
from repro.simkernel import Simulator
from repro.simkernel.timeunits import format_duration


def test_default_config_path():
    assert default_config_path() == "/pxelinux.cfg/default"


def test_standalone_menu_lst_boots_directly():
    from repro.boot.grubcfg import parse_grub_config

    text = standalone_menu_lst(boot_partition=2, root_partition=6)
    config = parse_grub_config(text)
    assert len(config.entries) == 1
    entry = config.entries[0]
    assert entry.title.endswith("-linux")
    assert entry.first("root") == "(hd0,1)"
    assert "root=/dev/sda6" in entry.first("kernel")


def test_format_duration_negative():
    assert format_duration(-90) == "-1m30.0s"


@pytest.fixture()
def server():
    sim = Simulator()
    srv = PbsServer(sim)
    for i in range(1, 3):
        srv.create_node(f"enode{i:02d}", np=4)
        srv.node_up(f"enode{i:02d}")
    return srv


def test_render_single_entry_helpers(server):
    jobid = server.qsub(JobSpec(name="solo", ppn=4, runtime_s=10.0))
    job = server.jobs[jobid]
    job_text = render_qstat_full_entry(job, server.server_name)
    assert job_text.startswith(f"Job Id: {jobid}")
    assert "    Job_Name = solo" in job_text
    node_text = render_pbsnodes_entry(
        server.node("enode01"), server.sim.now
    )
    assert node_text.startswith("enode01.")
    assert "     np = 4" in node_text

