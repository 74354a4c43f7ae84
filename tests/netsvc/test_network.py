"""Unit tests for the LAN segment."""

import pytest

from repro.errors import NetworkError
from repro.netsvc import DeliveryVerdict, Network
from repro.simkernel import Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def net(sim):
    return Network(sim, latency_s=0.001)


def test_register_and_lookup(net):
    host = net.register("linhead")
    assert net.host("linhead") is host
    assert net.has_host("linhead")
    assert not net.has_host("winhead")


def test_duplicate_name_rejected(net):
    net.register("a")
    with pytest.raises(NetworkError):
        net.register("a")


def test_unknown_host_lookup_raises(net):
    with pytest.raises(NetworkError):
        net.host("ghost")


def test_negative_latency_rejected(sim):
    with pytest.raises(NetworkError):
        Network(sim, latency_s=-1)


def test_message_delivery_with_latency(sim, net):
    a = net.register("a")
    b = net.register("b")
    inbox = b.listen(5000)
    a.send("b", 5000, "hello")
    assert len(inbox) == 0  # not yet delivered
    sim.run()
    assert sim.now == 0.001
    msg = inbox.try_get()
    assert (msg.src, msg.dst, msg.port, msg.payload) == ("a", "b", 5000, "hello")


def test_messages_ordered(sim, net):
    a = net.register("a")
    b = net.register("b")
    inbox = b.listen(1)
    for i in range(5):
        a.send("b", 1, i)
    sim.run()
    got = [inbox.try_get().payload for _ in range(5)]
    assert got == [0, 1, 2, 3, 4]


def test_send_to_unknown_host_is_dropped(sim, net):
    a = net.register("a")
    a.send("ghost", 1, "x")
    sim.run()
    assert net.messages_dropped == 1


def test_send_to_unbound_port_is_dropped(sim, net):
    a = net.register("a")
    net.register("b")
    a.send("b", 99, "x")
    sim.run()
    assert net.messages_dropped == 1


def test_send_to_offline_host_is_dropped(sim, net):
    a = net.register("a")
    b = net.register("b")
    b.listen(1)
    b.online = False
    a.send("b", 1, "x")
    sim.run()
    assert net.messages_dropped == 1


def test_send_from_unknown_host_raises(net):
    with pytest.raises(NetworkError):
        net.deliver("ghost", "a", 1, "x")


def test_double_bind_rejected(net):
    b = net.register("b")
    b.listen(7)
    with pytest.raises(NetworkError):
        b.listen(7)


def test_drops_counted_by_reason(sim, net):
    a = net.register("a")
    b = net.register("b")
    b.listen(1)
    a.send("ghost", 1, "x")   # unknown_host
    a.send("b", 99, "x")      # no_listener
    sim.run()
    b.online = False
    a.send("b", 1, "x")       # offline
    sim.run()
    assert net.drops_by_reason["unknown_host"] == 1
    assert net.drops_by_reason["no_listener"] == 1
    assert net.drops_by_reason["offline"] == 1
    assert net.drops_by_reason["injected"] == 0
    assert net.messages_dropped == 3  # back-compat total


def test_delivered_counter(sim, net):
    a = net.register("a")
    b = net.register("b")
    b.listen(1)
    a.send("b", 1, "x")
    sim.run()
    assert net.messages_delivered == 1
    assert net.messages_dropped == 0


def test_tap_can_drop(sim, net):
    a = net.register("a")
    b = net.register("b")
    inbox = b.listen(1)
    net.add_tap(lambda m: DeliveryVerdict(drop=True) if m.payload == "bad" else None)
    a.send("b", 1, "bad")
    a.send("b", 1, "good")
    sim.run()
    assert net.drops_by_reason["injected"] == 1
    assert inbox.try_get().payload == "good"
    assert inbox.try_get() is None


def test_tap_can_delay(sim, net):
    a = net.register("a")
    b = net.register("b")
    inbox = b.listen(1)
    net.add_tap(lambda m: DeliveryVerdict(extra_delay_s=1.0))
    a.send("b", 1, "x")
    sim.run()
    assert sim.now == pytest.approx(1.001)
    assert inbox.try_get().payload == "x"


def test_tap_can_rewrite_payload(sim, net):
    a = net.register("a")
    b = net.register("b")
    inbox = b.listen(1)
    net.add_tap(lambda m: DeliveryVerdict(payload="mangled", rewrite=True))
    a.send("b", 1, "clean")
    sim.run()
    assert inbox.try_get().payload == "mangled"


def test_blocking_receive_in_process(sim, net):
    a = net.register("a")
    b = net.register("b")
    inbox = b.listen(1)
    got = []

    def server():
        msg = yield inbox.get()
        got.append((sim.now, msg.payload))

    sim.spawn(server())
    sim.schedule(5.0, a.send, "b", 1, "late")
    sim.run()
    assert got == [(5.001, "late")]


def test_listener_put_then_get(sim, net):
    b = net.register("b")
    inbox = b.listen(1)
    net.register("a").send("b", 1, "x")
    sim.run()
    got = []

    def server():
        msg = yield inbox.get()
        got.append((sim.now, msg.payload))

    sim.spawn(server())
    sim.run()
    assert got == [(0.001, "x")]
    assert len(inbox) == 0


def test_listener_get_blocks_until_put(sim, net):
    a = net.register("a")
    inbox = net.register("b").listen(1)
    got = []

    def server():
        msg = yield inbox.get()
        got.append((sim.now, msg.payload))

    sim.spawn(server())
    sim.schedule(4.0, a.send, "b", 1, "late")
    sim.run(until=2.0)
    assert got == []
    sim.run()
    assert got == [(4.001, "late")]
    # the message went straight to the waiting getter, not the queue
    assert len(inbox) == 0


def test_listener_fifo_ordering(sim, net):
    a = net.register("a")
    inbox = net.register("b").listen(1)
    for i in range(3):
        a.send("b", 1, i)
    sim.run()
    assert len(inbox) == 3
    values = []

    def server():
        for _ in range(3):
            values.append((yield inbox.get()).payload)

    sim.spawn(server())
    sim.run()
    assert values == [0, 1, 2]


def test_listener_try_get(sim, net):
    a = net.register("a")
    inbox = net.register("b").listen(1)
    assert inbox.try_get() is None
    a.send("b", 1, 7)
    sim.run()
    assert inbox.try_get().payload == 7
    assert inbox.try_get() is None
