"""The fault injector against a bare simulated LAN.

These tests exercise the injector below the middleware: a two-host
network, explicit plans, and direct counter/delivery assertions.  The
chaos experiment (E9) covers the full control-plane integration.
"""

import types

import pytest

from repro.core.wire import QueueStateMessage
from repro.errors import ConfigurationError, MiddlewareError
from repro.faults import (
    CORRUPTION_MODES,
    BootHang,
    FaultInjector,
    FaultPlan,
    HeadCrash,
    LinkFault,
    Partition,
    ServiceFlap,
    WireCorruption,
    corrupt_wire,
)
from repro.netsvc import Network
from repro.simkernel import Simulator
from repro.simkernel.rng import RngStreams

IDLE_WIRE = "00000none"
STUCK_WIRE = "100041191.eridani.qgg.hud.ac.uk"


@pytest.fixture()
def lan():
    sim = Simulator()
    net = Network(sim, latency_s=0.001)
    a = net.register("a")
    b = net.register("b")
    inbox = b.listen(5800)
    return sim, net, a, inbox


def flood(sim, net, host, count, payload=IDLE_WIRE, port=5800):
    for i in range(count):
        sim.schedule(float(i), host.send, "b", port, payload)
    sim.run()


@pytest.mark.parametrize("mode", CORRUPTION_MODES)
@pytest.mark.parametrize("wire", [IDLE_WIRE, STUCK_WIRE])
def test_corrupt_wire_always_breaks_decode(mode, wire):
    damaged = corrupt_wire(wire, mode)
    assert damaged != wire
    with pytest.raises(MiddlewareError):
        QueueStateMessage.decode(damaged)


def test_corrupt_wire_unknown_mode():
    with pytest.raises(ConfigurationError):
        corrupt_wire(IDLE_WIRE, "evil-bit")


def drain(inbox):
    out = []
    while True:
        msg = inbox.try_get()
        if msg is None:
            return out
        out.append(msg.payload)


def test_link_loss_is_deterministic(lan):
    def run(seed):
        sim = Simulator()
        net = Network(sim, latency_s=0.001)
        a = net.register("a")
        inbox = net.register("b").listen(5800)
        plan = FaultPlan(link_faults=(LinkFault(src="a", dst="b", loss_prob=0.5),))
        FaultInjector(sim, net, RngStreams(seed), plan, tracer=sim.tracer).arm()
        for i in range(200):
            sim.schedule(float(i), a.send, "b", 5800, i)
        sim.run()
        return [m for m in drain(inbox)]

    first, second = run(seed=7), run(seed=7)
    assert first == second                      # same (seed, plan) → identical
    assert 40 < len(first) < 160                # the loss actually bites
    assert run(seed=8) != first                 # the seed actually matters


def test_new_consumer_does_not_perturb_existing_streams():
    """Adding a corruption fault must not change which messages the loss
    stream drops — named substreams are independent by construction."""

    def surviving_indices(plan):
        sim = Simulator()
        net = Network(sim, latency_s=0.001)
        a = net.register("a")
        inbox = net.register("b").listen(5800)
        FaultInjector(sim, net, RngStreams(3), plan, tracer=sim.tracer).arm()
        for i in range(200):
            sim.schedule(float(i), a.send, "b", 5800, str(i))
        sim.run()
        return [int(p.lstrip("#")[::-1] if p.startswith("#") else p)
                for p in drain(inbox)]

    loss_only = FaultPlan(link_faults=(LinkFault(src="a", dst="b", loss_prob=0.4),))
    with_corruption = FaultPlan(
        link_faults=(LinkFault(src="a", dst="b", loss_prob=0.4),),
        corruptions=(WireCorruption(port=5800, prob=0.5, modes=("garbage",)),),
    )
    assert surviving_indices(loss_only) == surviving_indices(with_corruption)


def test_partition_window(lan):
    sim, net, a, inbox = lan
    plan = FaultPlan(partitions=(
        Partition(side_a=("a",), side_b=("b",), start_s=2.0, end_s=4.0),
    ))
    injector = FaultInjector(sim, net, RngStreams(0), plan, tracer=sim.tracer)
    injector.arm()
    flood(sim, net, a, 6)  # sends at t=0..5
    assert drain(inbox) == [IDLE_WIRE] * 4  # t=2 and t=3 severed
    assert injector.counters["partition"] == 2
    assert net.drops_by_reason["injected"] == 2


def test_jitter_delays_but_delivers(lan):
    sim, net, a, inbox = lan
    plan = FaultPlan(link_faults=(
        LinkFault(src="a", dst="b", jitter_s=2.0),
    ))
    FaultInjector(sim, net, RngStreams(1), plan, tracer=sim.tracer).arm()
    a.send("b", 5800, "x")
    sim.run()
    assert drain(inbox) == ["x"]
    assert sim.now > 0.001  # some jitter was added


def test_corruption_rewrites_strings_only(lan):
    sim, net, a, inbox = lan
    plan = FaultPlan(corruptions=(
        WireCorruption(port=5800, prob=1.0, modes=("bad-flag",)),
    ))
    injector = FaultInjector(sim, net, RngStreams(0), plan, tracer=sim.tracer)
    injector.arm()
    a.send("b", 5800, IDLE_WIRE)
    a.send("b", 5800, ("ack", IDLE_WIRE))  # tuples pass through untouched
    sim.run()
    got = drain(inbox)
    assert got[0] == "X" + IDLE_WIRE[1:]
    assert got[1] == ("ack", IDLE_WIRE)
    assert injector.counters["corrupted:bad-flag"] == 1


def test_corruption_respects_port(lan):
    sim, net, a, inbox = lan
    other_inbox = net.host("b").listen(5900)
    plan = FaultPlan(corruptions=(
        WireCorruption(port=5900, prob=1.0, modes=("garbage",)),
    ))
    FaultInjector(sim, net, RngStreams(0), plan, tracer=sim.tracer).arm()
    a.send("b", 5800, IDLE_WIRE)
    a.send("b", 5900, IDLE_WIRE)
    sim.run()
    assert drain(inbox) == [IDLE_WIRE]
    assert drain(other_inbox) != [IDLE_WIRE]


def test_head_crash_calls_control(lan):
    sim, net, _, _ = lan
    calls = []
    control = types.SimpleNamespace(
        crash=lambda side: calls.append(("crash", side, sim.now)),
        restart=lambda side: calls.append(("restart", side, sim.now)),
    )
    plan = FaultPlan(head_crashes=(HeadCrash(side="windows", at_s=5.0, down_s=3.0),))
    injector = FaultInjector(sim, net, RngStreams(0), plan, control=control, tracer=sim.tracer)
    injector.arm()
    sim.run()
    assert calls == [("crash", "windows", 5.0), ("restart", "windows", 8.0)]
    assert injector.counters["crash:windows"] == 1


def test_service_flap_toggles_enabled(lan):
    sim, net, _, _ = lan
    dhcp = types.SimpleNamespace(enabled=True)
    history = []
    plan = FaultPlan(service_flaps=(
        ServiceFlap(service="dhcp", first_down_at_s=1.0, down_s=2.0,
                    period_s=10.0, count=2),
    ))
    injector = FaultInjector(sim, net, RngStreams(0), plan, dhcp=dhcp, tracer=sim.tracer)
    injector.arm()
    for t in (0.5, 1.5, 3.5, 11.5, 13.5):
        sim.schedule_at(t, lambda: history.append((sim.now, dhcp.enabled)))
    sim.run()
    assert history == [
        (0.5, True), (1.5, False), (3.5, True), (11.5, False), (13.5, True),
    ]
    assert injector.counters["flap:dhcp"] == 2


def test_boot_hang_hook_counts_down(lan):
    sim, net, _, _ = lan
    env = types.SimpleNamespace(hang_hook=None)
    plan = FaultPlan(boot_hangs=(BootHang(node="*", times=2),))
    injector = FaultInjector(sim, net, RngStreams(0), plan, env=env, tracer=sim.tracer)
    injector.arm()
    assert env.hang_hook is not None
    assert env.hang_hook("aa:bb") is not None
    assert env.hang_hook("aa:bb") is not None
    assert env.hang_hook("aa:bb") is None  # budget of 2 exhausted
    assert injector.counters["boot-hang"] == 2


def test_targeted_boot_hang_needs_mac(lan):
    sim, net, _, _ = lan
    env = types.SimpleNamespace(hang_hook=None)
    plan = FaultPlan(boot_hangs=(BootHang(node="enode01"),))
    with pytest.raises(ConfigurationError):
        FaultInjector(sim, net, RngStreams(0), plan, env=env, tracer=sim.tracer)
    injector = FaultInjector(
        sim, net, RngStreams(0), plan, env=env,
        node_macs={"enode01": "aa:01"},
        tracer=sim.tracer,
    )
    injector.arm()
    assert env.hang_hook("ff:ff") is None    # some other node boots fine
    assert env.hang_hook("aa:01") is not None


def test_missing_handles_rejected(lan):
    sim, net, _, _ = lan
    with pytest.raises(ConfigurationError):
        FaultInjector(
            sim, net, RngStreams(0),
            FaultPlan(head_crashes=(HeadCrash(side="linux", at_s=0, down_s=1),)),
            tracer=sim.tracer,
        )
    with pytest.raises(ConfigurationError):
        FaultInjector(
            sim, net, RngStreams(0),
            FaultPlan(service_flaps=(
                ServiceFlap(service="tftp", first_down_at_s=0, down_s=1),
            )),
            tracer=sim.tracer,
        )
    with pytest.raises(ConfigurationError):
        FaultInjector(
            sim, net, RngStreams(0),
            FaultPlan(boot_hangs=(BootHang(),)),
            tracer=sim.tracer,
        )


def test_another_simulations_tracer_rejected(lan):
    sim, net, _, _ = lan
    with pytest.raises(ConfigurationError, match="sim.tracer"):
        FaultInjector(
            sim, net, RngStreams(0), FaultPlan(), tracer=Simulator().tracer,
        )


def test_double_arm_rejected(lan):
    sim, net, a, inbox = lan
    env = types.SimpleNamespace(hang_hook=None)
    plan = FaultPlan(
        link_faults=(LinkFault(src="a", dst="b", loss_prob=1.0),),
        boot_hangs=(BootHang(),),
    )
    injector = FaultInjector(sim, net, RngStreams(0), plan, env=env, tracer=sim.tracer)
    injector.arm()
    with pytest.raises(ConfigurationError):
        injector.arm()
