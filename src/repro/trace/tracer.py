"""The event collector attached to one simulated cluster.

A :class:`Tracer` is created per middleware instance (one per simulated
cluster) and handed to every instrumented component.  Components call
:meth:`Tracer.emit`; analysis code reads :attr:`Tracer.events` or the
canonical JSONL export.

Recording is pay-as-you-go: ``emit`` appends one lightweight pending
record (a plain tuple — no dataclass construction, no ``float()``
boxing, no seq bookkeeping) and the pending records materialise into
:class:`TraceEvent` objects lazily, on the first read of
:attr:`Tracer.events`.  Simulations that never read their trace never
pay for building it.  The ``mode`` knob drops even that cost:
``"counts"`` keeps only the per-kind counters, ``"off"`` records
nothing — and because ``emit`` never feeds back into simulation state,
a run is byte-identical when re-run with tracing on (proved per
experiment by the cross-mode diff in ``tests/trace/test_determinism.py``).
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Any, Dict, List, Optional

from repro.trace.events import TraceEvent

#: Valid ``Tracer.mode`` / ``TraceConfig.mode`` values.
TRACE_MODES = ("full", "counts", "off")


class Tracer:
    """Collects :class:`TraceEvent` records for one simulation.

    ``kernel_events`` gates the very chatty simkernel hooks
    (``kernel.spawn``/``kernel.fire``/``kernel.timeout``); experiments
    leave it off and only the focused control-plane events are recorded.

    ``mode`` selects how much work :meth:`emit` does: ``"full"``
    (events + counts, the default), ``"counts"`` (counters only;
    :attr:`events` stays empty) or ``"off"`` (nothing).
    """

    def __init__(self, sim: Any, name: str = "trace",
                 kernel_events: bool = False, mode: str = "full") -> None:
        if mode not in TRACE_MODES:
            raise ValueError(
                f"bad trace mode {mode!r} (expected one of {TRACE_MODES})"
            )
        self.sim = sim
        self.name = name
        self.kernel_events = kernel_events
        self.mode = mode
        self.counts: Counter = Counter()
        self._events: List[TraceEvent] = []
        # Pending records ``(kind, time, node, cycle, cause, fields)``;
        # _materialize swaps each for its event in place.
        self._pending: List[Any] = []

    def __repr__(self) -> str:
        n = len(self._events) + len(self._pending)
        return f"Tracer(name={self.name!r}, events={n})"

    # -- recording -----------------------------------------------------------

    def emit(self, kind: str, *, node: Optional[str] = None,
             cycle: Optional[int] = None, cause: Optional[str] = None,
             **fields: Any) -> None:
        """Record one event at the current simulation time.

        The hot path of every instrumented component: in ``full`` mode
        this is one tuple append plus a counter bump — the
        :class:`TraceEvent` itself is built lazily by :attr:`events`.
        """
        mode = self.mode
        if mode == "full":
            self._pending.append((kind, self.sim.now, node, cycle, cause, fields))
            self.counts[kind] += 1
        elif mode == "counts":
            self.counts[kind] += 1

    def _materialize(self) -> None:
        """Turn pending records into :class:`TraceEvent` objects.

        ``seq`` is assigned here as the running emission index — pending
        records are only ever appended, so laziness cannot reorder them.
        Kind strings are interned: most are module-level constants from
        :mod:`repro.trace.events` already, and interning makes the kind
        filters in :meth:`events_of` pointer-compare in the common case.

        Each event replaces its pending record in place, so the record is
        freed as soon as its event exists.  The trace is never held twice:
        peak memory stays lower, and the GC-tracked object count does not
        grow by the whole trace, which would set off a full collection
        over every live object of the run.
        """
        pending = self._pending
        intern = sys.intern
        seq = len(self._events)
        for i, (kind, time, node, cycle, cause, fields) in enumerate(pending):
            pending[i] = TraceEvent(seq + i, float(time), intern(kind), node,
                                    cycle, cause, fields)
        self._events += pending
        pending.clear()

    @property
    def events(self) -> List[TraceEvent]:
        """All recorded events, materialised on first read."""
        if self._pending:
            self._materialize()
        return self._events

    # -- querying ------------------------------------------------------------

    def events_of(self, *kinds: str) -> List[TraceEvent]:
        """Events whose kind is one of ``kinds`` (exact match)."""
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def events_with_prefix(self, prefix: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind.startswith(prefix)]

    def summary(self) -> Dict[str, int]:
        """Event counts by kind, sorted by kind name."""
        return {kind: self.counts[kind] for kind in sorted(self.counts)}

    # -- export --------------------------------------------------------------

    def export_jsonl(self) -> str:
        """The full trace as canonical JSONL (one event per line)."""
        return "".join(e.to_json() + "\n" for e in self.events)

    def write_jsonl(self, path: Any) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.export_jsonl())

    @staticmethod
    def load_jsonl(text: str) -> List[TraceEvent]:
        """Parse a JSONL export back into events."""
        return [TraceEvent.from_json(line)
                for line in text.splitlines() if line.strip()]

    @staticmethod
    def read_jsonl(path: Any) -> List[TraceEvent]:
        with open(path, "r", encoding="ascii") as fh:
            return Tracer.load_jsonl(fh.read())
