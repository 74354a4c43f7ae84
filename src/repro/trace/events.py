"""The trace event record and its canonical JSON form.

One event is one line of JSONL.  The serialisation is *canonical* —
sorted keys, no whitespace, ``None``/empty fields omitted — so that two
runs producing the same events produce byte-identical exports; the
determinism regression tests compare the raw text.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

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

#: Energy accounting (per-node watt changes + end-of-run joule reports).
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
JOB_HELD = "job.held"
JOB_RELEASED = "job.released"

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


def _jsonable(value: Any) -> Any:
    """Coerce a field value to something canonically JSON-serialisable."""
    if type(value) in _ATOMS:
        return value
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


#: The canonical encoder, built once: what ``json.dumps`` would build on
#: every call with these arguments.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=True)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One structured event in a simulation trace.

    ``seq`` is the per-tracer emission index (total order even among
    same-time events); ``time`` is simulation seconds.  ``node`` is the
    hostname the event concerns (compute node or head), ``cycle`` the
    communicator cycle index where meaningful, and ``cause`` a free-text
    reason.  Everything else lives in ``fields``.
    """

    seq: int
    time: float
    kind: str
    node: Optional[str] = None
    cycle: Optional[int] = None
    cause: Optional[str] = None
    fields: Mapping[str, Any] = field(default_factory=dict)

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
        return _ENCODER.encode(self.to_dict())

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
