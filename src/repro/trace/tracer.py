"""The event collector of one simulation.

Every :class:`~repro.simkernel.Simulator` owns exactly one
:class:`Tracer` (``sim.tracer``), created with it; every instrumented
component records into its simulator's tracer through :meth:`Tracer.emit`,
and analysis code reads :attr:`Tracer.events` or the canonical JSONL
export.

Recording is pay-as-you-go: ``emit`` appends one lightweight pending
record (a plain tuple — no event construction, no ``float()``
boxing, no seq bookkeeping; the fields dict goes in a parallel list, so
the collector untracks the tuple) and the pending records materialise into
:class:`TraceEvent` objects lazily, on the first read of
:attr:`Tracer.events`.  Simulations that never read their trace never
pay for building it.  ``emit`` never feeds back into simulation state,
so a run is the same with recording stubbed out (proved by the
observer-purity test in ``tests/trace/test_determinism.py``).
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.trace.events import TraceEvent, encode_jsonl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simkernel.kernel import Simulator


class Tracer:
    """Collects :class:`TraceEvent` records for one simulation."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.counts: Counter = Counter()
        self._events: List[TraceEvent] = []
        # Pending records ``(kind, time, node, cycle, cause, None)`` and their
        # fields; _materialize swaps each record for its event in place, and
        # the spare slot sizes a record like its event, which reuses its memory.
        self._pending: List[Any] = []
        self._fields: List[Dict[str, Any]] = []

    def __repr__(self) -> str:
        n = len(self._events) + len(self._pending)
        return f"Tracer(events={n})"

    # -- recording -----------------------------------------------------------

    def emit(self, kind: str, *, node: Optional[str] = None,
             cycle: Optional[int] = None, cause: Optional[str] = None,
             **fields: Any) -> None:
        """Record one event at the current simulation time.

        The hot path of every instrumented component: two list appends
        plus a counter bump — the :class:`TraceEvent` itself is built
        lazily by :attr:`events`.
        """
        self._pending.append((kind, self.sim.now, node, cycle, cause, None))
        self._fields.append(fields)
        self.counts[kind] += 1

    def _materialize(self) -> None:
        """Turn pending records into :class:`TraceEvent` objects.

        ``seq`` is assigned here as the running emission index — pending
        records are only ever appended, so laziness cannot reorder them.
        Kind strings are interned: most are module-level constants from
        :mod:`repro.trace.events` already, and interning makes the kind
        filters in :meth:`events_of` pointer-compare in the common case.
        Each event is built by ``tuple.__new__``, one C call, not by the
        named tuple's Python-level constructor.

        Each event replaces its pending record in place, so the record is
        freed as soon as its event exists.  The trace is never held twice:
        peak memory stays lower, and the GC-tracked object count does not
        grow by the whole trace, which would set off a full collection
        over every live object of the run.
        """
        pending = self._pending
        intern = sys.intern
        new = tuple.__new__
        seq = len(self._events)
        for i, ((kind, time, node, cycle, cause, _), fields) in enumerate(
            zip(pending, self._fields)
        ):
            pending[i] = new(TraceEvent, (seq + i, float(time), intern(kind),
                                          node, cycle, cause, fields))
        self._events += pending
        pending.clear()
        self._fields.clear()

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
        return encode_jsonl(self.events)

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
