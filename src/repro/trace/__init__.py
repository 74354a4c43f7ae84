"""Structured event tracing for the simulated cluster.

Every interesting step of the paper's control loop — detector check →
wire send → communicator decision → switch order → reboot → scheduler
rejoin — is emitted as a typed :class:`~repro.trace.events.TraceEvent`
carrying simulation time, the node (or head) involved, the communicator
cycle and a cause string.  A :class:`~repro.trace.tracer.Tracer` collects
the events of one simulation and exports them as canonical JSONL, which
is byte-identical across runs of the same ``(seed, scenario)`` pair.

The trace is not just a debugging aid: :mod:`repro.trace.invariants`
turns it into a correctness oracle.  Properties like "every confirmed
switch order has a matching reboot span" or "no decision consumed a
Windows report older than the staleness cap" are checked post-hoc over
any experiment's trace, so every run of E1–E9 is self-checking.

See ``docs/OBSERVABILITY.md`` for the event schema and the invariant
catalogue.
"""

from repro.trace.events import TraceEvent
from repro.trace.invariants import (
    INVARIANTS,
    Violation,
    check_events,
    check_jsonl,
)
from repro.trace.tracer import Tracer

__all__ = [
    "INVARIANTS",
    "TraceEvent",
    "Tracer",
    "Violation",
    "check_events",
    "check_jsonl",
]
