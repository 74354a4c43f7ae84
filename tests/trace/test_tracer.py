"""Unit tests for TraceEvent / Tracer: canonical JSONL, querying, laziness."""

import gc
import json
import tracemalloc

import pytest

from repro.simkernel import Simulator
from repro.trace import TraceEvent, Tracer


@pytest.fixture()
def sim():
    return Simulator()


# -- TraceEvent serialisation -------------------------------------------------


def test_event_to_dict_drops_empty_optionals(sim):
    event = TraceEvent(seq=0, time=1.5, kind="order.issued")
    assert event.to_dict() == {"seq": 0, "t": 1.5, "kind": "order.issued"}


def test_event_json_is_canonical():
    event = TraceEvent(
        seq=3, time=2.0, kind="boot.complete", node="enode01",
        fields={"os": "linux", "via": "pxe"},
    )
    line = event.to_json()
    # compact separators, sorted keys, no unicode escapes needed
    assert line == json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":"))
    assert TraceEvent.from_json(line) == event


def test_event_roundtrip_preserves_all_fields():
    event = TraceEvent(
        seq=9, time=600.0, kind="order.failed", node="enode02",
        cycle=4, cause="watchdog deadline passed",
        fields={"order_id": 2, "target_os": "windows"},
    )
    assert TraceEvent.from_json(event.to_json()) == event


def test_non_jsonable_fields_coerced_to_str(sim):
    tracer = Tracer(sim)
    tracer.emit("x", obj=object(), nums=(1, 2))
    decoded = json.loads(tracer.events[-1].to_json())
    assert isinstance(decoded["fields"]["obj"], str)
    assert decoded["fields"]["nums"] == [1, 2]


# -- Tracer recording ---------------------------------------------------------


def test_emit_stamps_sim_time_and_sequences(sim):
    tracer = Tracer(sim)
    tracer.emit("a.one")
    sim.schedule_at(10.0, lambda: tracer.emit("a.two", node="n1", extra=7))
    sim.run()
    assert [e.seq for e in tracer.events] == [0, 1]
    assert [e.time for e in tracer.events] == [0.0, 10.0]
    assert tracer.events[1].node == "n1"
    assert tracer.events[1].fields == {"extra": 7}


def test_events_of_and_prefix_queries(sim):
    tracer = Tracer(sim)
    for kind in ("boot.start", "boot.complete", "order.issued", "boot.start"):
        tracer.emit(kind)
    assert len(tracer.events_of("boot.start")) == 2
    assert len(tracer.events_of("boot.start", "order.issued")) == 3
    assert len(tracer.events_with_prefix("boot.")) == 3
    assert tracer.summary() == {
        "boot.complete": 1, "boot.start": 2, "order.issued": 1,
    }


# -- export / import ----------------------------------------------------------


def test_jsonl_export_roundtrip(sim, tmp_path):
    tracer = Tracer(sim)
    tracer.emit("a.one", node="n", val=1.5)
    tracer.emit("a.two", cause="because")
    text = tracer.export_jsonl()
    assert text.count("\n") == 2
    assert Tracer.load_jsonl(text) == tracer.events

    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    assert Tracer.read_jsonl(path) == tracer.events



# -- lazy materialisation ----------------------------------------------------


def test_partial_reads_keep_events_summary_and_repr_in_step(sim):
    tracer = Tracer(sim)
    for i in range(3):
        tracer.emit("a.one", n=i)
    assert [e.seq for e in tracer.events] == [0, 1, 2]
    tracer.emit("a.two", node="n1")
    tracer.emit("a.one", n=3)
    assert repr(tracer) == "Tracer(events=5)"
    events = tracer.events
    assert [(e.seq, e.kind) for e in events] == [
        (0, "a.one"), (1, "a.one"), (2, "a.one"), (3, "a.two"), (4, "a.one"),
    ]
    assert events[3].node == "n1" and events[4].fields == {"n": 3}
    assert tracer.summary() == {"a.one": 4, "a.two": 1}
    assert repr(tracer) == "Tracer(events=5)"


def test_reading_the_trace_never_holds_it_twice(sim):
    """Materialising swaps each pending record for its event, so reading
    the trace never keeps all records and all events alive at once."""
    tracer = Tracer(sim)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            tracer.emit("a.one", node="n1", n=i, x=0.5)
        recorded = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert len(tracer.events) == 10_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Held once, reading adds the new seq ints and the events list.  Held
    # twice, it also adds every event while every record is still alive:
    # about 40 % of what recording took, against about 20 % held once.
    assert peak - recorded < (recorded - start) * 0.3


def test_pending_records_leave_the_collector_untracked(sim):
    """A pending record with atomic fields is nothing the cyclic garbage
    collector must walk: once a collection has seen it, it is untracked."""
    tracer = Tracer(sim)
    tracer.emit("a.one", node="n1", n=1, x=0.5)
    gc.collect()
    assert not any(gc.is_tracked(record) for record in tracer._pending)
    assert tracer.events[0].fields == {"n": 1, "x": 0.5}


# -- ownership -----------------------------------------------------------------


def test_every_simulator_owns_exactly_one_tracer(sim):
    assert isinstance(sim.tracer, Tracer)
    assert sim.tracer.sim is sim
    assert Simulator().tracer is not sim.tracer
    sim.schedule_at(2.0, lambda: sim.tracer.emit("a.one"))
    sim.run()
    assert [(e.time, e.kind) for e in sim.tracer.events] == [(2.0, "a.one")]
