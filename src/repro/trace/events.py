"""The trace event record and its canonical JSON form.

One event is one line of JSONL.  The serialisation is *canonical* —
sorted keys, no whitespace, ``None``/empty fields omitted — so that two
runs producing the same events produce byte-identical exports; the
determinism regression tests compare the raw text.
"""

from __future__ import annotations

import json
import numbers
from _json import make_encoder
from collections import abc
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional

# -- well-known event kinds ---------------------------------------------------
#
# Kinds are dotted ``layer.what`` strings.  The catalogue below is the
# contract the invariant checks rely on; emitters are free to add new
# kinds, but renaming one of these breaks the oracle.

#: Detector runs (both sides' ``checkqueue``).
DETECTOR_CHECK = "detector.check"

#: Communicator protocol (Figure 11, steps 1–4).
COMM_REPORT_SENT = "comm.report_sent"
COMM_REPORT_ACKED = "comm.report_acked"
COMM_REPORT_LOST = "comm.report_lost"
COMM_RETRY = "comm.retry"
COMM_REPORT_RECEIVED = "comm.report_received"
COMM_REPORT_CORRUPT = "comm.report_corrupt"
COMM_ACK_SENT = "comm.ack_sent"
COMM_STALE_SKIP = "comm.stale_skip"

#: Control decisions and the switch-order ledger (step 5).
CONTROL_DECISION = "control.decision"
CONTROL_FLAG_SET = "control.flag_set"
ORDER_ISSUED = "order.issued"
ORDER_CONFIRMED = "order.confirmed"
ORDER_FAILED = "order.failed"

#: Daemon lifecycle (crash/restart fault entry points).
DAEMON_CRASH = "daemon.crash"
DAEMON_RESTART = "daemon.restart"

#: Node power/boot spans.
BOOT_START = "boot.start"
BOOT_COMPLETE = "boot.complete"
BOOT_FAILED = "boot.failed"
NODE_OS_UP = "node.os_up"
NODE_OS_DOWN = "node.os_down"

#: Hard node failure (power lost without an orderly shutdown).
NODE_CRASH = "node.crash"

#: Admin cordon/drain on either scheduler (``fields["scheduler"]``).
NODE_CORDONED = "node.cordoned"
NODE_UNCORDONED = "node.uncordoned"

#: Tri-stable power transitions (suspend-to-RAM and cloud-burst pool).
POWER_SUSPENDED = "power.suspended"
POWER_RESUMED = "power.resumed"
POWER_PROVISIONING = "power.provisioning"
POWER_DEPROVISIONED = "power.deprovisioned"

#: Energy accounting: the meter's power model (once), each metered node's
#: attach and power transitions, and the end-of-run joule reports.
ENERGY_MODEL = "energy.model"
ENERGY_STATE = "energy.state"
ENERGY_REPORT = "energy.report"

#: Power-aware elasticity decisions (suspend/resume/provision/hold).
ELASTIC_DECISION = "elastic.decision"

#: Job lifecycle on either scheduler (``fields["scheduler"]`` says which).
JOB_SUBMITTED = "job.submitted"
JOB_STARTED = "job.started"
JOB_FINISHED = "job.finished"
JOB_REQUEUED = "job.requeued"
JOB_FAILED = "job.failed"

#: Heartbeat health monitor (suspect -> fenced -> recovered).
HEALTH_ARMED = "health.armed"
HEALTH_SUSPECT = "health.suspect"
HEALTH_FENCED = "health.fenced"
HEALTH_RECOVERED = "health.recovered"
#: Orderly agent stop (reboot, OS switch, drain): beats stop being
#: expected — planned downtime, never an escalation.
HEALTH_EXPECTED_DOWN = "health.expected_down"

#: Fault injection (every injected fault is a trace event).
FAULT_ARMED = "fault.armed"
FAULT_NODE_CRASH = "fault.node_crash"
FAULT_NODE_RESTART = "fault.node_restart"
FAULT_PREFIX = "fault."


#: Types :func:`_jsonable` passes through untouched.  Checked by exact
#: type, so subclasses (``np.float64``, ``np.bool_``, enums) still take
#: the coercing path below.
_ATOMS = frozenset((str, bool, int, float, type(None)))
_STR = frozenset((str,))


def _jsonable(value: Any) -> Any:
    """Coerce a field value to something canonically JSON-serialisable.

    Lists, tuples and dicts come back as new lists and dicts.  Those that
    hold only atoms (and, for dicts, only ``str`` keys) are copied without
    coercing each item, which gives the same result.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if (kind is list or kind is tuple) and _ATOMS.issuperset(map(type, value)):
        return list(value)
    if (kind is dict and _STR.issuperset(map(type, value))
            and _ATOMS.issuperset(map(type, value.values()))):
        return dict(value)
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, abc.Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


#: The canonical encoder: what ``json.dumps`` would build on every call
#: with these arguments.  It encodes the envelope values that are not
#: plain strings (see :func:`encode_jsonl`).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=True)

#: The C encoder behind :data:`_ENCODER`, built once instead of once per
#: call.  It gets only coerced fields objects, which are acyclic, so it
#: keeps no circular-reference markers.  Calling it returns chunks.
_FIELDS_ENCODER = make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None, ":", ",",
    True, False, True,
)

#: ``repr`` of the non-finite floats, spelt as the encoder spells them.
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_EMPTY: Mapping[str, Any] = MappingProxyType({})


class TraceEvent(NamedTuple):
    """One structured event in a simulation trace.

    ``seq`` is the per-tracer emission index (total order even among
    same-time events); ``time`` is simulation seconds.  ``node`` is the
    hostname the event concerns (compute node or head), ``cycle`` the
    communicator cycle index where meaningful, and ``cause`` a free-text
    reason.  Everything else lives in ``fields``.

    A tuple, so a trace of tens of thousands of events is built at C
    speed (see :meth:`repro.trace.tracer.Tracer.events`).
    """

    seq: int
    time: float
    kind: str
    node: Optional[str] = None
    cycle: Optional[int] = None
    cause: Optional[str] = None
    fields: Mapping[str, Any] = _EMPTY

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "seq": self.seq,
            "t": float(self.time),
            "kind": self.kind,
        }
        if self.node is not None:
            out["node"] = self.node
        if self.cycle is not None:
            out["cycle"] = int(self.cycle)
        if self.cause is not None:
            out["cause"] = self.cause
        if self.fields:
            out["fields"] = {k: _jsonable(v) for k, v in self.fields.items()}
        return out

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return encode_jsonl((self,))[:-1]

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        return cls(
            seq=int(data["seq"]),
            time=float(data["t"]),
            kind=str(data["kind"]),
            node=data.get("node"),
            cycle=data.get("cycle"),
            cause=data.get("cause"),
            fields=dict(data.get("fields", {})),
        )

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        return cls.from_dict(json.loads(line))


def encode_jsonl(events: Iterable[TraceEvent]) -> str:
    """The canonical JSONL of *events*: one line per event.

    Each line is ``json.dumps(e.to_dict(), sort_keys=True,
    separators=(",", ":"))`` plus a newline, written directly: the
    envelope keys go out in their fixed sorted order (``cause``,
    ``cycle``, ``fields``, ``kind``, ``node``, ``seq``, ``t``), the
    ``kind`` and ``node`` members are encoded once per distinct value,
    and the encoder runs once per line, over the fields object only.
    Fields whose values are all JSON atoms are encoded as they are;
    the others are coerced by :func:`_jsonable` first, as ``to_dict``
    does.
    """
    encode = _ENCODER.encode
    fields_chunks = _FIELDS_ENCODER
    atoms = _ATOMS.issuperset
    nonfinite = _NONFINITE.get
    kinds: Dict[str, str] = {}
    nodes: Dict[Any, str] = {None: ""}
    lines: List[str] = []
    append = lines.append
    for seq, time, kind, node, cycle, cause, fields in events:
        head = "{"
        if cause is not None:
            head += '"cause":' + (
                encode_basestring_ascii(cause) if type(cause) is str
                else encode(cause)
            ) + ","
        if cycle is not None:
            head += '"cycle":' + repr(int(cycle)) + ","
        if fields:
            if type(fields) is not dict or not atoms(map(type, fields.values())):
                fields = {k: _jsonable(v) for k, v in fields.items()}
            head += '"fields":' + "".join(fields_chunks(fields, 0)) + ","
        kind_json = kinds.get(kind)
        if kind_json is None:
            kind_json = kinds[kind] = (
                '"kind":' + encode_basestring_ascii(kind) + ","
            )
        node_json = nodes.get(node)
        if node_json is None:
            node_json = nodes[node] = '"node":' + (
                encode_basestring_ascii(node) if type(node) is str
                else encode(node)
            ) + ","
        t = repr(float(time))
        append(f'{head}{kind_json}{node_json}"seq":{seq},"t":{nonfinite(t, t)}}}\n')
    return "".join(lines)
