"""Unit tests for the Store primitive."""

import pytest

from repro.simkernel import Simulator, Store


@pytest.fixture()
def sim():
    return Simulator()


def test_store_put_then_get(sim):
    store = Store(sim)
    store.put("x")
    ev = store.get()
    sim.run()
    assert ev.value == "x"
    assert len(store) == 0


def test_store_get_blocks_until_put(sim):
    store = Store(sim)
    got = []

    def getter():
        item = yield store.get()
        got.append((sim.now, item))

    sim.spawn(getter())
    sim.schedule(4.0, store.put, "late")
    sim.run()
    assert got == [(4.0, "late")]


def test_store_fifo_ordering(sim):
    store = Store(sim)
    for i in range(3):
        store.put(i)
    values = []

    def getter():
        for _ in range(3):
            values.append((yield store.get()))

    sim.spawn(getter())
    sim.run()
    assert values == [0, 1, 2]


def test_store_try_get(sim):
    store = Store(sim)
    assert store.try_get() is None
    store.put(7)
    assert store.try_get() == 7
    assert store.try_get() is None


def test_store_items_snapshot(sim):
    store = Store(sim)
    store.put("a")
    store.put("b")
    assert store.items == ["a", "b"]
    # snapshot is a copy
    store.items.append("c")
    assert len(store) == 2
