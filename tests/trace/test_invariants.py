"""Trace invariants: positive cases, tampered traces, and a seeded bug.

Three layers:

* synthetic traces exercise each invariant's detection logic directly;
* a real golden-scenario trace is *tampered* (events deleted) and the
  relevant invariant must notice;
* a deliberately buggy communicator tick (the staleness guard removed —
  exactly the bug the hardening PR fixed) runs in the hardening rig and
  the ``decision-freshness`` invariant must flag it, while the stock
  tick stays clean.  This is the negative test the battery exists for.
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
from repro.netsvc import DhcpServer, Network, TftpServer
from repro.pbs import PbsServer
from repro.simkernel import MINUTE, Simulator, Timeout
from repro.simkernel.rng import RngStreams
from repro.storage import Filesystem, FsType
from repro.trace import INVARIANTS, Violation, check_events, check_jsonl
from repro.winhpc import WinHpcScheduler


def make_events(*specs):
    """Synthetic trace: each spec is (time, kind, node, fields)."""
    from repro.trace import TraceEvent

    return [
        TraceEvent(seq=i, time=t, kind=kind, node=node, fields=fields)
        for i, (t, kind, node, fields) in enumerate(specs)
    ]


def violations_of(name, events):
    return INVARIANTS[name](events)


# -- registry -----------------------------------------------------------------


def test_at_least_five_distinct_invariants_registered():
    assert len(INVARIANTS) >= 5
    assert {"monotonic-time", "confirmed-order-has-boot",
            "decision-freshness", "os-change-has-boot-chain",
            "received-was-sent"} <= set(INVARIANTS)


def test_violation_str_mentions_invariant_and_event():
    v = Violation(invariant="x-inv", message="broke", seq=4, time=2.0)
    assert "x-inv" in str(v) and "#4" in str(v)


def test_empty_trace_is_clean():
    assert check_events([]) == []
    assert check_jsonl("") == []


# -- synthetic positive/negative cases per invariant --------------------------


def test_monotonic_time_flags_backwards_clock():
    good = make_events((0.0, "a", None, {}), (1.0, "b", None, {}))
    bad = make_events((5.0, "a", None, {}), (1.0, "b", None, {}))
    assert violations_of("monotonic-time", good) == []
    assert len(violations_of("monotonic-time", bad)) == 1


def test_confirmed_order_requires_matching_boot():
    issue = (0.0, "order.issued", None, {"order_id": 1, "target_os": "windows"})
    boot = (60.0, "boot.complete", "n1", {"os": "windows", "via": "grub"})
    confirm = (60.0, "order.confirmed", "n1",
               {"order_id": 1, "target_os": "windows"})
    assert violations_of(
        "confirmed-order-has-boot", make_events(issue, boot, confirm)) == []
    # no boot at all
    assert len(violations_of(
        "confirmed-order-has-boot", make_events(issue, confirm))) == 1
    # boot into the WRONG os
    wrong = (60.0, "boot.complete", "n1", {"os": "linux", "via": "grub"})
    assert len(violations_of(
        "confirmed-order-has-boot", make_events(issue, wrong, confirm))) == 1
    # boot on a DIFFERENT node
    other = (60.0, "boot.complete", "n2", {"os": "windows", "via": "grub"})
    assert len(violations_of(
        "confirmed-order-has-boot", make_events(issue, other, confirm))) == 1
    # confirmed but never issued
    assert len(violations_of(
        "confirmed-order-has-boot", make_events(boot, confirm))) == 1


def test_confirm_at_same_instant_as_boot_complete_is_legal():
    """Scheduler join (-> confirm) fires while the OS starts, a hair
    before boot.complete at the same sim time — must not be flagged."""
    events = make_events(
        (0.0, "order.issued", None, {"order_id": 1, "target_os": "linux"}),
        (90.0, "order.confirmed", "n1", {"order_id": 1, "target_os": "linux"}),
        (90.0, "boot.complete", "n1", {"os": "linux", "via": "pxe"}),
    )
    assert violations_of("confirmed-order-has-boot", events) == []


def test_decision_freshness_flags_stale_consumption():
    fresh = (0.0, "control.decision", "h",
             {"report_age_s": 30.0, "staleness_cap_s": 1200.0})
    stale = (0.0, "control.decision", "h",
             {"report_age_s": 1500.0, "staleness_cap_s": 1200.0})
    uncapped = (0.0, "control.decision", "h", {"action": "hold"})
    assert violations_of("decision-freshness", make_events(fresh)) == []
    assert violations_of("decision-freshness", make_events(uncapped)) == []
    assert len(violations_of("decision-freshness", make_events(stale))) == 1


def test_os_up_outside_boot_span_is_flagged():
    good = make_events(
        (0.0, "boot.start", "n1", {"cold": True}),
        (60.0, "node.os_up", "n1", {"os": "linux"}),
        (60.0, "boot.complete", "n1", {"os": "linux", "via": "grub"}),
    )
    ghost = make_events((60.0, "node.os_up", "n1", {"os": "linux"}))
    after_close = make_events(
        (0.0, "boot.start", "n1", {}),
        (50.0, "boot.failed", "n1", {}),
        (60.0, "node.os_up", "n1", {"os": "linux"}),
    )
    assert violations_of("os-change-has-boot-chain", good) == []
    assert len(violations_of("os-change-has-boot-chain", ghost)) == 1
    assert len(violations_of("os-change-has-boot-chain", after_close)) == 1


def test_received_wire_must_have_been_sent():
    sent = (0.0, "comm.report_sent", "w", {"wire": "00000none", "attempt": 0})
    ok = (1.0, "comm.report_received", "l",
          {"wire": "00000none", "via": "network"})
    forged = (1.0, "comm.report_received", "l",
              {"wire": "10004evil", "via": "network"})
    assert violations_of("received-was-sent", make_events(sent, ok)) == []
    assert len(violations_of("received-was-sent",
                             make_events(sent, forged))) == 1
    # a receipt with nothing sent at all is caught too
    assert len(violations_of("received-was-sent", make_events(ok))) == 1


def test_order_lifecycle_rejects_double_issue_and_double_resolve():
    i1 = (0.0, "order.issued", None, {"order_id": 1})
    c1 = (10.0, "order.confirmed", "n1", {"order_id": 1})
    f1 = (20.0, "order.failed", None, {"order_id": 1})
    assert violations_of("order-lifecycle", make_events(i1, c1)) == []
    assert len(violations_of("order-lifecycle", make_events(i1, i1))) == 1
    assert len(violations_of("order-lifecycle", make_events(i1, c1, f1))) == 1
    assert len(violations_of("order-lifecycle", make_events(c1))) == 1


def test_fault_before_arm_is_flagged():
    arm = (10.0, "fault.armed", None, {"plan": "p"})
    early = (5.0, "fault.loss", None, {"plan": "p"})
    late = (15.0, "fault.loss", None, {"plan": "p"})
    assert violations_of("fault-after-arm", make_events(arm, late)) == []
    assert len(violations_of("fault-after-arm", make_events(early, arm))) == 1
    assert len(violations_of("fault-after-arm", make_events(late))) == 1


# -- tampered real traces -----------------------------------------------------


@pytest.fixture(scope="module")
def real_trace():
    from tests.trace.test_golden_traces import golden_scenario

    return golden_scenario(2).tracer.events


def test_real_trace_is_clean(real_trace):
    assert check_events(real_trace) == []


def test_deleting_boot_completes_breaks_confirmed_order(real_trace):
    tampered = [e for e in real_trace if e.kind != "boot.complete"]
    names = {v.invariant for v in check_events(tampered)}
    assert "confirmed-order-has-boot" in names


def test_deleting_boot_spans_breaks_os_chain(real_trace):
    tampered = [e for e in real_trace if e.kind != "boot.start"]
    names = {v.invariant for v in check_events(tampered)}
    assert "os-change-has-boot-chain" in names


def test_forging_a_received_wire_is_caught(real_trace):
    from repro.trace import TraceEvent

    received = next(e for e in real_trace
                    if e.kind == "comm.report_received"
                    and e.fields.get("via") == "network")
    forged = TraceEvent(
        seq=received.seq, time=received.time, kind=received.kind,
        node=received.node, cycle=received.cycle, cause=received.cause,
        fields={**received.fields, "wire": "10004never-sent"},
    )
    tampered = [forged if e is received else e for e in real_trace]
    names = {v.invariant for v in check_events(tampered)}
    assert "received-was-sent" in names


# -- the seeded bug: a communicator without the staleness guard ---------------

CYCLE = 10 * MINUTE


class _UnguardedLinuxCommunicator(LinuxCommunicator):
    """The pre-hardening bug, reintroduced on purpose: the heartbeat
    re-evaluates the last Windows state no matter how old it is."""

    def tick(self):
        if self.last_windows_state is None:
            return
        # BUG: no staleness-cap check before consuming the report
        self._evaluate(self.last_windows_state, self.last_windows_wire)


def control_rig(sim, linux_cls):
    """The hardening-test rig (no nodes), with a pluggable Linux side."""
    network = Network(sim)
    linhead = network.register("eridani")
    winhead = network.register("winhead")
    pbs = PbsServer(sim)
    winhpc = WinHpcScheduler(sim)
    for i in range(1, 5):
        pbs.create_node(f"enode{i:02d}", np=4)
        pbs.node_up(f"enode{i:02d}")
        winhpc.add_node(f"enode{i:02d}", cores=4)
    controller = ControllerV2(
        DualBootMenuSpec(boot_partition=2, root_partition=6),
        tftp=TftpServer(Filesystem(FsType.EXT3)),
        dhcp=DhcpServer(),
    )
    controller.prepare_cluster()
    orders = SwitchOrders(pbs, winhpc, controller,
                          order_timeout_s=15 * MINUTE)
    linux = linux_cls(
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
    return linux, windows, linhead


def _run_with_silent_windows(linux_cls):
    """One report arrives, then the Windows head goes silent for hours
    while the Linux heartbeat keeps ticking."""
    sim = Simulator()
    linux, windows, linhead = control_rig(sim, linux_cls)
    sim.spawn(linux.run())
    sim.spawn(windows.run())

    def silence():
        # delivery drops on the *destination*: every later report from the
        # Windows head is lost before the Linux listener sees it
        linhead.online = False

    sim.schedule_at(1 * MINUTE, silence)

    def heartbeat():
        while True:
            yield Timeout(CYCLE)
            linux.tick()

    sim.spawn(heartbeat(), name="heartbeat")
    sim.run(until=3 * 60 * MINUTE)
    return sim.tracer


def test_seeded_staleness_bug_is_caught_by_the_invariant():
    tracer = _run_with_silent_windows(_UnguardedLinuxCommunicator)
    violations = check_events(tracer.events)
    names = {v.invariant for v in violations}
    assert "decision-freshness" in names
    # the report only ages — every tick past the cap is a fresh breach
    assert sum(v.invariant == "decision-freshness" for v in violations) >= 2
    # and the JSONL path agrees with the in-memory path
    jsonl_names = {v.invariant for v in check_jsonl(tracer.export_jsonl())}
    assert "decision-freshness" in jsonl_names


def test_stock_communicator_stays_clean_under_the_same_silence():
    tracer = _run_with_silent_windows(LinuxCommunicator)
    assert check_events(tracer.events) == []
    # it refused, rather than decided: stale skips must be in the trace
    assert tracer.events_of("comm.stale_skip")
