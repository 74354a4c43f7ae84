"""Hardened control plane: acks/retry, tolerant decode, staleness guard,
order ledger + watchdog, daemon crash/restart.

Unit tests drive the communicators on a bare network (no real nodes);
integration tests torture the full middleware through its fault surface.
"""

import pytest

from repro.core import MiddlewareConfig, build_hybrid_cluster
from repro.core.communicator import (
    LinuxCommunicator,
    SwitchOrders,
    WindowsCommunicator,
)
from repro.core.controller import DualBootMenuSpec
from repro.core.controller_v2 import ControllerV2
from repro.core.detector import PbsDetector, WinHpcDetector
from repro.core.policy import FcfsPolicy
from repro.core.switchjob import OrderState
from repro.core.wire import QueueStateMessage
from repro.errors import MiddlewareError
from repro.faults import BootHang, FaultInjector, FaultPlan
from repro.netsvc import DhcpServer, Network, TftpServer
from repro.pbs import JobSpec, PbsServer
from repro.pbs.job import JobState
from repro.sched import JobRequest
from repro.simkernel import HOUR, MINUTE, Simulator
from repro.simkernel.rng import RngStreams
from repro.storage import Filesystem, FsType
from repro.winhpc import WinHpcScheduler
from repro.winhpc.job import WinJobState

CYCLE = 10 * MINUTE
STUCK_WIRE = QueueStateMessage.stuck_queue(4, "7").encode()


@pytest.fixture()
def rig():
    """PBS + WinHPC + v2 controller + ack-enabled communicators, no nodes."""
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

    controller = ControllerV2(
        DualBootMenuSpec(boot_partition=2, root_partition=6),
        tftp=TftpServer(Filesystem(FsType.EXT3)),
        dhcp=DhcpServer(),
    )
    controller.prepare_cluster()
    orders = SwitchOrders(pbs, winhpc, controller, order_timeout_s=15 * MINUTE)
    linux = LinuxCommunicator(
        sim=sim,
        listener=linhead.listen(5800),
        detector=PbsDetector(pbs),
        policy=FcfsPolicy(),
        orders=orders,
        cores_per_node=4,
        host=linhead,
        ack_port=5801,
        cycle_s=CYCLE,
        staleness_cycles=2,
    )
    windows = WindowsCommunicator(
        sim=sim,
        host=winhead,
        detector=WinHpcDetector(winhpc),
        linux_head="eridani",
        port=5800,
        cycle_s=CYCLE,
        ack_listener=winhead.listen(5801),
        max_retries=2,
        retry_base_s=5.0,
        ack_timeout_s=10.0,
        rng=RngStreams(11).spawn("communicator"),
    )
    return sim, network, pbs, winhpc, orders, linux, windows, linhead, winhead


@pytest.fixture()
def deliver(rig):
    """Run the Linux daemon; the returned function sends one wire string
    from the Windows head to its listener and waits out the delivery."""
    sim, *_, linux, _, _, winhead = rig
    sim.spawn(linux.run())

    def send(wire):
        before = len(linux.decisions)
        winhead.send(linux.host.name, 5800, wire)
        sim.run(until=sim.now + 1.0)
        assert len(linux.decisions) == before + 1

    return send


# -- ack + retry --------------------------------------------------------------


def test_clean_network_every_report_acked_first_try(rig):
    sim, _, _, _, _, linux, windows, *_ = rig
    sim.spawn(linux.run())
    sim.spawn(windows.run())
    sim.run(until=35 * MINUTE)
    assert windows.reports_sent == 4      # t=0,10,20,30 — retries would inflate
    assert windows.reports_acked == 4
    assert windows.retries == 0
    assert windows.reports_failed == 0
    assert linux.acks_sent == 4
    assert linux.reports_received == 4


def test_unacked_report_retries_with_backoff_then_gives_up(rig):
    sim, _, _, _, _, linux, windows, linhead, _ = rig
    linhead.online = False  # nobody home: every send is dropped
    sim.spawn(windows.run())
    sim.run(until=9 * MINUTE)  # one cycle worth of attempts
    assert windows.reports_sent == 3   # original + 2 retries
    assert windows.retries == 2
    assert windows.reports_failed == 1
    assert windows.reports_acked == 0


def test_retry_recovers_a_lost_first_send(rig):
    sim, network, _, _, _, linux, windows, *_ = rig
    # drop exactly the first report, pass everything else
    seen = {"n": 0}

    def drop_first(message):
        from repro.netsvc import DeliveryVerdict

        if isinstance(message.payload, str) and message.port == 5800:
            seen["n"] += 1
            if seen["n"] == 1:
                return DeliveryVerdict(drop=True)
        return None

    network.add_tap(drop_first)
    sim.spawn(linux.run())
    sim.spawn(windows.run())
    sim.run(until=5 * MINUTE)
    assert windows.retries == 1
    assert windows.reports_acked == 1      # the retry landed
    assert linux.reports_received == 1
    # the cycle cadence is epoch-aligned: retries don't skew the next report
    sim.run(until=15 * MINUTE)
    assert windows.reports_acked == 2


def test_retry_config_validation(rig):
    sim, *_, windows, _, winhead = rig
    with pytest.raises(MiddlewareError):
        WindowsCommunicator(
            sim=sim, host=winhead, detector=windows.detector,
            linux_head="eridani", port=1, cycle_s=CYCLE,
            ack_listener=windows.ack_listener, rng=windows.rng, max_retries=-1,
        )
    with pytest.raises(MiddlewareError):
        WindowsCommunicator(
            sim=sim, host=winhead, detector=windows.detector,
            linux_head="eridani", port=1, cycle_s=CYCLE,
            ack_listener=windows.ack_listener, rng=windows.rng, retry_base_s=0.0,
        )


# -- tolerant decode ----------------------------------------------------------


def test_corrupt_wire_counted_and_discarded(rig):
    sim, _, _, _, _, linux, _, _, winhead = rig
    sim.spawn(linux.run())
    winhead.send("eridani", 5800, "Xgarbage")
    winhead.send("eridani", 5800, 12345)        # not even a string
    winhead.send("eridani", 5800, "00000none")  # a good one after the noise
    sim.run(until=1 * MINUTE)
    assert linux.corrupt_reports == 2
    assert linux.reports_received == 1
    assert len(linux.decisions) == 1            # only the valid wire decided
    assert linux.acks_sent == 1                 # corrupt wires are never acked


# -- staleness guard ----------------------------------------------------------


def test_tick_noop_while_report_is_fresh(rig, deliver):
    sim, _, _, _, _, linux, *_ = rig
    deliver("00000none")
    sim.run(until=5 * MINUTE)  # half a cycle
    before = len(linux.decisions)
    linux.tick()
    assert len(linux.decisions) == before
    assert linux.stale_skips == 0


def test_tick_reevaluates_within_the_cap(rig, deliver):
    sim, _, _, _, _, linux, *_ = rig
    deliver(STUCK_WIRE)
    sim.run(until=15 * MINUTE)  # 1.5 cycles old: missed one report
    before = len(linux.decisions)
    linux.tick()
    assert len(linux.decisions) == before + 1
    assert linux.decisions[-1].windows_wire == STUCK_WIRE
    assert linux.stale_skips == 0


def test_tick_never_decides_on_a_report_past_the_cap(rig, deliver):
    sim, _, _, _, orders, linux, *_ = rig
    deliver("00000none")
    issued_before = orders.orders_issued
    sim.run(until=25 * MINUTE)  # cap is 2 cycles = 20 minutes
    linux.tick()
    assert linux.stale_skips == 1
    last = linux.decisions[-1]
    assert not last.decision.is_switch
    assert "stale" in last.decision.reason
    assert orders.orders_issued == issued_before


def test_staleness_validation(rig):
    sim, _, pbs, winhpc, orders, linux, *_ = rig
    with pytest.raises(MiddlewareError):
        LinuxCommunicator(
            sim=sim, listener=linux.listener, detector=linux.detector,
            policy=linux.policy, orders=orders, cores_per_node=4,
            host=linux.host, ack_port=5801, cycle_s=CYCLE, staleness_cycles=0,
        )


# -- order ledger + watchdog --------------------------------------------------


def test_issue_records_pending_orders(rig, deliver):
    _, _, pbs, _, orders, linux, *_ = rig
    deliver(QueueStateMessage.stuck_queue(8, "7").encode())
    assert orders.orders_issued == 2
    assert orders.in_flight("windows") == 2
    assert all(o.state is OrderState.PENDING for o in orders.orders)
    assert all(o.jobid in pbs.jobs for o in orders.orders)
    assert all(o.deadline == o.issued_at + 15 * MINUTE for o in orders.orders)


def test_node_join_confirms_oldest_pending_order(rig, deliver):
    _, _, _, winhpc, orders, linux, *_ = rig
    deliver(QueueStateMessage.stuck_queue(8, "7").encode())
    winhpc.node_online("enode01")
    assert orders.orders_confirmed == 1
    assert orders.in_flight("windows") == 1
    confirmed = [o for o in orders.orders if o.state is OrderState.CONFIRMED]
    assert confirmed[0].order_id == orders.orders[0].order_id  # FIFO
    assert confirmed[0].node == "enode01"


def test_join_with_no_pending_orders_is_ignored(rig):
    _, _, _, winhpc, orders, *_ = rig
    winhpc.node_online("enode01")  # e.g. initial deployment joins
    assert orders.orders_confirmed == 0


def test_expire_fails_overdue_orders_and_frees_in_flight(rig, deliver):
    sim, _, _, _, orders, linux, *_ = rig
    deliver(STUCK_WIRE)
    assert orders.in_flight("windows") == 1
    sim.run(until=16 * MINUTE)
    expired = orders.expire(sim.now)
    assert [o.state for o in expired] == [OrderState.FAILED]
    assert orders.orders_failed == 1
    assert orders.in_flight("windows") == 0
    # a later expire pass does not double-fail
    assert orders.expire(sim.now + HOUR) == []


def test_expire_cancels_a_still_queued_switch_job(rig):
    sim, _, pbs, _, orders, linux, *_ = rig
    # occupy every donor node so a switch job queues instead of starting
    pbs.qsub(JobSpec(name="busy", nodes=4, ppn=4, runtime_s=HOUR))
    script = orders.controller.linux_switch_script("windows")
    jobid = pbs.submit_switch_job(script, owner="sliang")
    orders._record("windows", jobid)
    assert pbs.jobs[jobid].state is JobState.QUEUED
    sim.run(until=16 * MINUTE)
    orders.expire(sim.now)
    assert orders.orders_failed == 1
    assert pbs.jobs[jobid].state is JobState.COMPLETED
    assert pbs.jobs[jobid].exit_status == 271


def test_order_timeout_validation(rig):
    _, _, pbs, winhpc, orders, *_ = rig
    with pytest.raises(MiddlewareError):
        SwitchOrders(pbs, winhpc, orders.controller, order_timeout_s=0)


def deployed(**kw):
    hybrid = build_hybrid_cluster(
        num_nodes=4, seed=13, version=2,
        config=MiddlewareConfig(version=2, check_cycle_s=5 * MINUTE, **kw),
    )
    hybrid.deploy()
    hybrid.wait_for_nodes()
    return hybrid


def test_windows_head_crash_and_restart_recovers():
    hybrid = deployed()
    daemons = hybrid.daemons
    daemons.crash("windows")
    assert not daemons.windows_process.alive
    before = daemons.windows.reports_sent
    hybrid.sim.run(until=hybrid.sim.now + 30 * MINUTE)
    assert daemons.windows.reports_sent == before  # silence
    assert daemons.linux.stale_skips > 0           # linux noticed
    daemons.restart("windows")
    hybrid.sim.run(until=hybrid.sim.now + 30 * MINUTE)
    assert daemons.windows.reports_sent > before
    assert daemons.windows.reports_acked > 0


def test_linux_head_crash_reports_fail_then_recover():
    hybrid = deployed()
    daemons = hybrid.daemons
    acked_before = None
    hybrid.sim.run(until=hybrid.sim.now + 1 * MINUTE)
    daemons.crash("linux")
    hybrid.sim.run(until=hybrid.sim.now + 20 * MINUTE)
    assert daemons.windows.reports_failed > 0
    assert daemons.windows.retries > 0
    acked_before = daemons.windows.reports_acked
    daemons.restart("linux")
    hybrid.sim.run(until=hybrid.sim.now + 20 * MINUTE)
    assert daemons.windows.reports_acked > acked_before


def test_crash_is_idempotent_and_sides_validated():
    hybrid = deployed()
    daemons = hybrid.daemons
    daemons.crash("windows")
    daemons.crash("windows")  # no-op
    daemons.restart("windows")
    daemons.restart("windows")  # no-op
    with pytest.raises(MiddlewareError):
        daemons.crash("solaris")


def test_watchdog_fails_hung_switch_order_and_reissues():
    """ISSUE acceptance: inject hang-at-boot under a switch order; the
    order must fail, in-flight must return to zero, and a later cycle
    must re-issue the switch."""
    hybrid = deployed(order_timeout_s=10 * MINUTE)
    injector = FaultInjector(
        hybrid.sim,
        hybrid.cluster.network,
        hybrid.cluster.rng,
        FaultPlan(name="hang", boot_hangs=(BootHang(times=1),)),
        env=hybrid.cluster.env,
        tracer=hybrid.tracer,
    )
    injector.arm()
    orders = hybrid.daemons.orders
    win_id = hybrid.submit(
        "windows", JobRequest(name="render", cores=4, runtime_s=5 * MINUTE)
    )
    hybrid.sim.run(until=hybrid.sim.now + 2 * HOUR)
    win_job = hybrid.scheduler("windows").get_job(win_id)

    assert injector.counters["boot-hang"] == 1
    assert orders.orders_failed == 1               # the hung node's order
    assert orders.orders_issued >= 2               # watchdog freed a re-issue
    assert orders.orders_confirmed >= 1            # the second donor made it
    assert orders.in_flight("windows") == 0        # nothing leaked
    assert win_job.state is WinJobState.FINISHED   # the workload ran anyway
    assert len(hybrid.cluster.failed_nodes()) == 1
