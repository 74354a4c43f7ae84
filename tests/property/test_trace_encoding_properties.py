"""Property tests for the canonical trace encoding.

``TraceEvent.to_json`` skips ``_jsonable``'s ABC checks for values whose
exact type is already JSON-native and reuses one encoder.  The oracle is
the slow spelling it replaced: ``json.dumps`` with the canonical
arguments over ``to_dict()``, and over a dict built with the original
coercion (``_reference_jsonable`` below, kept verbatim).  Every field
value kind a component emits, and the awkward ones it might, is drawn:
numpy scalars, bools, signed zero, NaN and infinities, ints past 64
bits, non-ASCII text, str and int enums, tuples, nested containers and
objects that only have a ``str``.
"""

import enum
import json
import numbers
from types import SimpleNamespace
from typing import Any, Mapping

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.trace import TraceEvent, Tracer


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
#: Field names that ``Tracer.emit`` takes as its own keywords.
_EMIT_KEYWORDS = ("kind", "node", "cycle", "cause")
field_maps = st.dictionaries(
    st.text(max_size=8).filter(lambda k: k not in _EMIT_KEYWORDS),
    values, max_size=5,
)
events = st.builds(
    TraceEvent,
    seq=st.integers(min_value=0, max_value=10 ** 6),
    time=any_float,
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
