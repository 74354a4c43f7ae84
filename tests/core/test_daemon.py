"""Daemon wiring (start_daemons) unit tests."""

import pytest

from repro.core.controller import DualBootMenuSpec
from repro.core.controller_v2 import ControllerV2
from repro.core.daemon import start_daemons
from repro.core.policy import FcfsPolicy
from repro.errors import NetworkError
from repro.hardware import build_cluster
from repro.netsvc import DhcpServer, TftpServer
from repro.pbs import PbsServer
from repro.simkernel import MINUTE, Simulator
from repro.storage import Filesystem, FsType
from repro.winhpc import WinHpcScheduler


@pytest.fixture()
def rig():
    sim = Simulator()
    cluster = build_cluster(sim, num_nodes=2, seed=8)
    pbs = PbsServer(sim)
    winhpc = WinHpcScheduler(sim)
    controller = ControllerV2(
        DualBootMenuSpec(boot_partition=2, root_partition=6),
        tftp=TftpServer(Filesystem(FsType.EXT3)),
        dhcp=DhcpServer(),
    )
    controller.prepare_cluster()
    return sim, cluster, pbs, winhpc, controller


def start(rig):
    sim, cluster, pbs, winhpc, controller = rig
    return start_daemons(
        cluster=cluster, pbs=pbs, winhpc=winhpc, controller=controller,
        policy=FcfsPolicy(), cycle_s=10 * MINUTE,
    )


def test_daemons_run_and_report(rig):
    sim = rig[0]
    daemons = start(rig)
    assert daemons.linux_process.alive
    assert daemons.windows_process.alive
    sim.run(until=25 * MINUTE)
    assert daemons.windows.reports_sent == 3
    assert len(daemons.linux.decisions) == 3


def test_cores_per_node_inferred_from_cluster(rig):
    daemons = start(rig)
    assert daemons.linux.cores_per_node == 4  # Q8200 quad core


def test_stop_kills_both_processes(rig):
    sim = rig[0]
    daemons = start(rig)
    sim.run(until=5 * MINUTE)
    daemons.crash("linux")
    daemons.crash("windows")
    before = daemons.windows.reports_sent
    sim.run(until=60 * MINUTE)
    assert daemons.windows.reports_sent == before
    assert not daemons.linux_process.alive
    assert not daemons.windows_process.alive


def test_port_already_bound_raises(rig):
    start(rig)
    with pytest.raises(NetworkError, match="already bound"):
        start(rig)
