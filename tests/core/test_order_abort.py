"""Switch-order ledger under node failures: abort_jobs + expect_rejoin.

A fence terminally kills non-rerunnable switch jobs; the order ledger
must fail their orders immediately (not wait out the watchdog), and a
fenced node rebooting back must not be mistaken for a switch landing.
"""

import pytest

from repro.core.communicator import SwitchOrders
from repro.core.controller import DualBootMenuSpec
from repro.core.controller_v2 import ControllerV2
from repro.core.switchjob import OrderState
from repro.netsvc import DhcpServer, TftpServer
from repro.pbs import PbsServer
from repro.simkernel import MINUTE, Simulator
from repro.storage import Filesystem, FsType
from repro.winhpc import WinHpcScheduler


@pytest.fixture()
def rig():
    sim = Simulator()
    pbs = PbsServer(sim)
    for i in range(1, 5):
        pbs.create_node(f"enode{i:02d}", np=4)
        pbs.node_up(f"enode{i:02d}")
    winhpc = WinHpcScheduler(sim)
    for i in range(1, 5):
        winhpc.add_node(f"enode{i:02d}", cores=4)
    controller = ControllerV2(
        DualBootMenuSpec(boot_partition=2, root_partition=6),
        tftp=TftpServer(Filesystem(FsType.EXT3)),
        dhcp=DhcpServer(),
    )
    controller.prepare_cluster()
    orders = SwitchOrders(pbs, winhpc, controller, order_timeout_s=15 * MINUTE)
    return sim, pbs, winhpc, orders


def issue_to_windows(pbs, orders):
    script = orders.controller.linux_switch_script("windows")
    jobid = pbs.submit_switch_job(script, owner="sliang")
    orders._record("windows", jobid)
    return jobid


def test_abort_jobs_fails_matching_pending_orders(rig):
    sim, pbs, winhpc, orders = rig
    jobid = issue_to_windows(pbs, orders)
    other = issue_to_windows(pbs, orders)
    assert orders.in_flight("windows") == 2

    aborted = orders.abort_jobs([jobid], cause="node enode04 fenced")
    assert aborted == 1
    assert orders.orders_failed == 1
    assert orders.orders[0].state is OrderState.FAILED
    assert orders.orders[1].state is OrderState.PENDING  # the other order is untouched
    assert orders.in_flight("windows") == 1
    # the failed order ignores later joins; the pending one confirms
    winhpc.node_online("enode01")
    assert orders.orders_confirmed == 1
    assert orders.orders[1].jobid == other


def test_abort_jobs_ignores_unknown_and_resolved(rig):
    sim, pbs, winhpc, orders = rig
    jobid = issue_to_windows(pbs, orders)
    winhpc.node_online("enode01")  # the node landed: confirms the order
    assert orders.orders_confirmed == 1
    # a confirmed order cannot be aborted, nor can a job with no order
    assert orders.abort_jobs([jobid, "9999.nowhere"], cause="x") == 0
    assert orders.orders_failed == 0


def test_expected_rejoin_does_not_confirm_an_order(rig):
    sim, pbs, winhpc, orders = rig
    issue_to_windows(pbs, orders)
    # the middleware fenced enode02; its reboot (into Windows, even) is a
    # crash recovery, not a switch landing
    orders.expect_rejoin("enode02")
    winhpc.node_online("enode02")
    assert orders.orders_confirmed == 0
    assert orders.in_flight("windows") == 1
    # the marker is consumed: the NEXT join is a genuine confirmation
    winhpc.node_online("enode03")
    assert orders.orders_confirmed == 1
