"""Property tests for the canonical trace encoding.

``encode_jsonl`` (behind ``TraceEvent.to_json`` and
``Tracer.export_jsonl``) writes each line directly: envelope keys in
their fixed order, ``kind`` and ``node`` encoded once per distinct value,
one encoder call for the fields object, ``_jsonable``'s ABC checks only
for fields that are not all JSON-native.  The oracle is the slow
spelling: ``json.dumps`` with the canonical arguments over
``to_dict()``, and over a dict built with the original coercion
(``_reference_jsonable`` below, kept verbatim).  Every field value kind
a component emits, and the awkward ones it might, is drawn: numpy
scalars, bools, signed zero, NaN and infinities, ints past 64 bits,
non-ASCII text, str and int enums, tuples, nested containers, objects
that only have a ``str``, and the per-host ``cores`` map of
``job.started``.
"""

import enum
import itertools
import json
import numbers
from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace import TraceEvent, Tracer
from repro.trace.events import encode_jsonl


class Colour(str, enum.Enum):
    RED = "red"
    GREEN = "grün"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 40


class Opaque:
    """Only has a ``str``, which is what the encoder falls back to."""

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def __str__(self) -> str:
        return f"opaque<{self.tag}>"


def _reference_jsonable(value: Any) -> Any:
    """The coercion as it was before the exact-type fast path."""
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    return str(value)


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def _reference_json(e: TraceEvent) -> str:
    out = {"seq": e.seq, "t": float(e.time), "kind": e.kind}
    if e.node is not None:
        out["node"] = e.node
    if e.cycle is not None:
        out["cycle"] = int(e.cycle)
    if e.cause is not None:
        out["cause"] = e.cause
    if e.fields:
        out["fields"] = {k: _reference_jsonable(v) for k, v in e.fields.items()}
    return _canonical(out)


any_float = st.floats(allow_nan=True, allow_infinity=True)
atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 63, max_value=2 ** 80),
    any_float,
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.text(),
    st.text(alphabet="åßø€中文🙂 \x00\x7f", max_size=8),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32),
    st.integers(0, 255).map(np.uint8),
    any_float.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_),
    st.sampled_from(list(Colour) + list(Level)),
    st.integers(0, 99).map(Opaque),
)
values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), st.integers()),
                        inner, max_size=4),
    ),
    max_leaves=12,
)
#: ``job.started``'s ``cores``: host name -> core count, in placement
#: order; counts may come from numpy arithmetic.
cores_maps = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(1, 64), st.integers(1, 64).map(np.int64)),
    max_size=4,
)
#: Field names that ``Tracer.emit`` takes as its own keywords.
_EMIT_KEYWORDS = ("kind", "node", "cycle", "cause")
field_maps = st.one_of(
    st.dictionaries(
        st.text(max_size=8).filter(lambda k: k not in _EMIT_KEYWORDS),
        values, max_size=5,
    ),
    st.fixed_dictionaries(
        {"scheduler": st.just("pbs"), "jobid": st.text(max_size=8),
         "hosts": st.lists(st.text(max_size=8), max_size=3),
         "cores": cores_maps},
    ),
)
times = st.one_of(
    any_float,
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
)
events = st.builds(
    TraceEvent,
    seq=st.integers(min_value=0, max_value=10 ** 6),
    time=times,
    kind=st.sampled_from(["job.started", "energy.state", "x.é"]),
    node=st.one_of(st.none(), st.text(max_size=8)),
    cycle=st.one_of(st.none(), st.integers(0, 10 ** 6),
                    st.integers(0, 10 ** 6).map(np.int64)),
    cause=st.one_of(st.none(), st.text(max_size=8)),
    fields=field_maps,
)


@settings(max_examples=200, deadline=None)
@given(event=events)
def test_to_json_matches_the_slow_canonical_spelling(event):
    line = event.to_json()
    assert line == _canonical(event.to_dict())
    assert line == _reference_json(event)
    assert line.isascii() and "\n" not in line


@settings(max_examples=40, deadline=None)
@given(emitted=st.lists(st.tuples(any_float, events), max_size=12),
       read_after=st.integers(min_value=0, max_value=12))
def test_export_from_pending_records_equals_per_event_join(emitted, read_after):
    sim = SimpleNamespace(now=0.0)
    tracer = Tracer(sim)
    for i, (now, e) in enumerate(emitted):
        if i == read_after:
            # materialise a prefix; the rest stays pending
            assert len(tracer.events) == i
        sim.now = now
        tracer.emit(e.kind, node=e.node, cycle=e.cycle, cause=e.cause,
                    **e.fields)
    text = tracer.export_jsonl()
    assert text == "".join(_reference_json(e) + "\n" for e in tracer.events)
    assert [(e.seq, e.kind) for e in tracer.events] == [
        (i, e.kind) for i, (_, e) in enumerate(emitted)
    ]


#: The envelope members an event may leave out, and a present value of each.
_OPTIONAL = {
    "cause": st.text(max_size=8),
    "cycle": st.one_of(st.integers(0, 10 ** 6),
                       st.integers(0, 10 ** 6).map(np.int64)),
    "node": st.text(max_size=8),
    "fields": field_maps.filter(bool),
}


@pytest.mark.parametrize(
    "present", list(itertools.product((False, True), repeat=len(_OPTIONAL))),
    ids=lambda present: "".join("+" if p else "-" for p in present),
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_line_builder_matches_json_dumps_for_every_envelope_shape(
        present, data):
    """All sixteen ways of having or lacking ``cause``, ``cycle``,
    ``node`` and ``fields``, each line against ``json.dumps``."""
    chosen = {
        member: data.draw(strategy, label=member)
        for (member, strategy), wanted in zip(_OPTIONAL.items(), present)
        if wanted
    }
    event = TraceEvent(
        seq=data.draw(st.integers(0, 10 ** 6), label="seq"),
        time=data.draw(times, label="time"),
        kind=data.draw(st.sampled_from(["job.started", "energy.state"]),
                       label="kind"),
        **chosen,
    )
    line = encode_jsonl([event])
    assert line == _canonical(event.to_dict()) + "\n"
    assert line == _reference_json(event) + "\n"
    assert json.loads(line).keys() == event.to_dict().keys()


@settings(max_examples=100, deadline=None)
@given(batch=st.lists(events, max_size=12))
def test_export_is_json_dumps_per_line_and_round_trips(batch):
    """A batch repeats kinds and nodes, so the per-export memos are hit."""
    text = encode_jsonl(batch)
    assert text == "".join(_canonical(e.to_dict()) + "\n" for e in batch)
    loaded = Tracer.load_jsonl(text)
    assert [(e.seq, e.kind, e.node, e.cause) for e in loaded] == [
        (e.seq, e.kind, e.node, e.cause) for e in batch
    ]
    assert [e.cycle for e in loaded] == [
        None if e.cycle is None else int(e.cycle) for e in batch
    ]
    # the canonical text is a fixed point of load and export
    assert encode_jsonl(loaded) == text


@settings(max_examples=100, deadline=None)
@given(event=events)
def test_record_built_as_the_tracer_builds_it_is_the_event(event):
    """``Tracer`` builds each record with one ``tuple.__new__`` call; that
    is the same immutable event the keyword constructor makes."""
    built = tuple.__new__(TraceEvent, tuple(event))
    assert type(built) is TraceEvent
    assert built == event
    assert (built.seq, built.time, built.kind, built.node, built.cycle,
            built.cause, built.fields) == tuple(event)
    assert built.to_json() == event.to_json()
    with pytest.raises(AttributeError):
        built.kind = "other"


def test_record_defaults():
    event = TraceEvent(seq=3, time=1.5, kind="order.issued")
    assert (event.node, event.cycle, event.cause) == (None, None, None)
    assert not event.fields and dict(event.fields) == {}
    with pytest.raises(TypeError):
        event.fields["x"] = 1  # the shared default cannot be mutated
    assert event.to_json() == '{"kind":"order.issued","seq":3,"t":1.5}'
