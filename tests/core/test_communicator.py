"""Communicator + SwitchOrders unit tests (outside the full middleware).

The rig wires the communicators exactly as ``start_daemons`` does: acked
reports on the next port up, a fixed cycle, seeded retry jitter.
"""

import pytest

from repro.core.communicator import (
    LinuxCommunicator,
    SwitchOrders,
    WindowsCommunicator,
)
from repro.core.controller import DualBootMenuSpec
from repro.core.controller_v2 import ControllerV2
from repro.core.detector import PbsDetector, WinHpcDetector
from repro.core.policy import FcfsPolicy
from repro.core.wire import QueueStateMessage
from repro.errors import MiddlewareError
from repro.netsvc import DhcpServer, Network, TftpServer
from repro.pbs import JobSpec, PbsServer
from repro.sched import JobRequest
from repro.simkernel import MINUTE, Simulator
from repro.simkernel.rng import RngStreams
from repro.storage import Filesystem, FsType
from repro.winhpc import WinHpcScheduler


@pytest.fixture()
def rig():
    """PBS + WinHPC + v2 controller on a bare network (no real nodes)."""
    sim = Simulator()
    network = Network(sim)
    linhead = network.register("eridani")
    winhead = network.register("winhead")

    pbs = PbsServer(sim)
    for i in range(1, 5):
        pbs.create_node(f"enode{i:02d}", np=4)
        pbs.node_up(f"enode{i:02d}")
    winhpc = WinHpcScheduler(sim)
    for i in range(1, 5):
        winhpc.add_node(f"enode{i:02d}", cores=4)

    fs = Filesystem(FsType.EXT3)
    controller = ControllerV2(
        DualBootMenuSpec(boot_partition=2, root_partition=6),
        tftp=TftpServer(fs),
        dhcp=DhcpServer(),
    )
    controller.prepare_cluster()
    orders = SwitchOrders(pbs, winhpc, controller)
    listener = linhead.listen(5800)
    linux = LinuxCommunicator(
        sim=sim,
        listener=listener,
        detector=PbsDetector(pbs),
        policy=FcfsPolicy(),
        orders=orders,
        cores_per_node=4,
        host=linhead,
        ack_port=5801,
        cycle_s=10 * MINUTE,
    )
    windows = WindowsCommunicator(
        sim=sim,
        host=winhead,
        detector=WinHpcDetector(winhpc),
        linux_head="eridani",
        port=5800,
        cycle_s=10 * MINUTE,
        ack_listener=winhead.listen(5801),
        rng=RngStreams(11).spawn("communicator"),
    )
    return sim, pbs, winhpc, controller, orders, linux, windows, listener


@pytest.fixture()
def deliver(rig):
    """Run the Linux daemon; the returned function sends one wire string
    from the Windows head to its listener and returns the decision the
    daemon took on it."""
    sim, *_, linux, windows, _ = rig
    sim.spawn(linux.run())

    def send(wire):
        before = len(linux.decisions)
        windows.host.send(linux.host.name, 5800, wire)
        sim.run(until=sim.now + 1.0)
        assert len(linux.decisions) == before + 1
        return linux.decisions[-1].decision

    return send


def test_windows_communicator_reports_every_cycle(rig):
    sim, *_, linux, windows, listener = rig
    sim.spawn(linux.run())
    sim.spawn(windows.run())
    sim.run(until=35 * MINUTE)
    assert windows.reports_sent == 4  # t=0,10,20,30
    assert windows.reports_acked == 4
    assert linux.reports_received == 4
    assert len(listener) == 0  # the Linux daemon consumed every report
    assert linux.last_windows_wire == "00000none"


def test_cycle_validation(rig):
    sim, *_, windows, _ = rig
    with pytest.raises(MiddlewareError):
        WindowsCommunicator(
            sim=sim, host=windows.host, detector=windows.detector,
            linux_head="eridani", port=1, cycle_s=0,
            ack_listener=windows.ack_listener, rng=windows.rng,
        )


def test_handle_no_demand_decides_nothing(rig, deliver):
    sim, pbs, winhpc, controller, orders, linux, *_ = rig
    decision = deliver("00000none")
    assert not decision.is_switch
    assert len(linux.decisions) == 1
    assert linux.decisions[0].linux_wire == "00000none"


def test_handle_windows_stuck_issues_pbs_switch_jobs(rig, deliver):
    sim, pbs, winhpc, controller, orders, linux, *_ = rig
    decision = deliver(
        QueueStateMessage.stuck_queue(8, "7").encode()
    )
    assert decision.target_os == "windows"
    assert decision.num_nodes == 2  # 8 cpus / 4 per node
    assert orders.in_flight("windows") == 2
    assert controller.current_target() == "windows"
    switch_jobs = [j for j in pbs.jobs.values() if j.tag == "os-switch"]
    assert len(switch_jobs) == 2
    assert all(j.name == "release_1_node" for j in switch_jobs)


def test_pending_switches_prevent_double_issue(rig, deliver):
    sim, pbs, winhpc, controller, orders, linux, *_ = rig
    wire = QueueStateMessage.stuck_queue(8, "7").encode()
    deliver(wire)
    decision = deliver(wire)  # next cycle, switches still pending
    assert not decision.is_switch
    assert orders.in_flight("windows") == 2  # unchanged


def test_handle_linux_stuck_issues_winhpc_switch_jobs(rig, deliver):
    sim, pbs, winhpc, controller, orders, linux, *_ = rig
    # make linux stuck: all PBS nodes down + one queued job
    for host in list(pbs.nodes):
        pbs.node_down(host)
    pbs.qsub(JobSpec(name="md", nodes=1, ppn=4, runtime_s=60.0))
    # windows side has idle nodes
    for i in range(1, 5):
        winhpc.node_online(f"enode{i:02d}")
    decision = deliver("00000none")
    assert decision.target_os == "linux"
    assert decision.num_nodes == 1
    assert orders.in_flight("linux") == 1
    assert controller.current_target() == "linux"
    switch_jobs = [j for j in winhpc.jobs.values() if j.tag == "os-switch"]
    assert len(switch_jobs) == 1
    assert switch_jobs[0].unit.value == "Node"


def test_both_stuck_no_orders(rig, deliver):
    sim, pbs, winhpc, controller, orders, linux, *_ = rig
    for host in list(pbs.nodes):
        pbs.node_down(host)
    pbs.qsub(JobSpec(name="md", nodes=1, ppn=4, runtime_s=60.0))
    decision = deliver(QueueStateMessage.stuck_queue(4, "9").encode())
    assert not decision.is_switch
    assert orders.orders_issued == 0


def test_daemon_loop_reacts_to_incoming_wire(rig):
    sim, pbs, winhpc, controller, orders, linux, windows, listener = rig
    sim.spawn(linux.run())
    winhpc.submit_request(
        JobRequest(name="render", cores=4, runtime_s=60.0)
    )  # queued: no online windows nodes -> windows stuck
    sim.spawn(windows.run())
    sim.run(until=1 * MINUTE)
    assert len(linux.decisions) == 1
    assert linux.decisions[0].decision.is_switch
