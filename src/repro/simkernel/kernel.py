"""The simulator: clock + deterministic event queue.

The queue sits behind a small seam (:class:`EventQueue`).  Simulators
run on a calendar queue (:class:`repro.simkernel.calqueue.CalendarQueue`,
tuned for the clustered event times of the simulated cluster) unless
handed another queue instance; :class:`HeapEventQueue`, a binary heap,
is the reference implementation the equivalence tests compare against.
Both maintain the exact same total order: ``(time, sequence)``, where
the monotonically increasing sequence number breaks time ties so that
events scheduled first fire first — this makes every simulation in the
test suite and the benchmark harness bit-for-bit reproducible, and the
two queues byte-identical to each other (proved per-experiment by
``tests/experiments/test_queue_trace_equivalence.py``).
"""
from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    List,
    Optional,
    Protocol,
)

from repro.simkernel import calqueue
from repro.simkernel.events import Event
from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simkernel.process import Process


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a dead kernel)."""


#: Below this many dead entries compaction is never worth the rebuild cost.
_COMPACT_FLOOR = 64

class _Entry:
    """A scheduled callback.  Cancellation flips ``alive`` (lazy deletion)."""

    __slots__ = ("time", "seq", "fn", "args", "alive")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True

    def __lt__(self, other: "_Entry") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class EventQueue(Protocol):
    """The queue seam: total ``(time, seq)`` order plus lazy deletion.

    Implementations must pop in strict ``(time, seq)`` order, keep
    cancelled entries in place (``dead`` counts them) until they drain
    past or a compaction removes them, and tolerate ``fire`` callbacks
    that push, cancel or compact mid-``drain``.
    """

    dead: int
    compactions: int

    def push(self, entry: _Entry) -> None: ...

    def cancel(self, entry: _Entry) -> None: ...

    def pop(self) -> Optional[_Entry]: ...

    def peek(self) -> Optional[_Entry]: ...

    def drain(self, fire: Callable[[_Entry], None],
              until: Optional[float] = None) -> None: ...

    def __len__(self) -> int: ...


class HeapEventQueue:
    """The reference queue: a binary heap with dead-entry compaction.

    Cancellation is lazy: the entry stays in the heap with its ``alive``
    flag cleared and is skipped when it surfaces.  The queue counts dead
    entries and compacts once they outnumber the live ones, so long runs
    with heavy cancellation (walltime guards that almost never fire,
    interrupted waits) keep the heap — and every subsequent push/pop —
    proportional to the *live* event count.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        #: Cancelled entries still occupying heap slots.
        self.dead: int = 0
        #: Number of heap compactions performed so far.
        self.compactions: int = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HeapEventQueue queued={len(self._heap)} dead={self.dead}>"

    def push(self, entry: _Entry) -> None:
        heapq.heappush(self._heap, entry)

    def cancel(self, entry: _Entry) -> None:
        if entry.alive:
            entry.alive = False
            self.dead += 1
            if self.dead > _COMPACT_FLOOR and self.dead * 2 > len(self._heap):
                self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify, preserving list identity.

        ``heapify`` over the surviving entries is deterministic because
        ``(time, seq)`` is a strict total order — no two entries compare
        equal, so the resulting pop order is the same regardless of the
        heap's internal layout.  The slice assignment keeps the heap the
        same list object: the drain loop holds a local alias to it.
        """
        self._heap[:] = [e for e in self._heap if e.alive]
        heapq.heapify(self._heap)
        self.dead = 0
        self.compactions += 1

    def pop(self) -> Optional[_Entry]:
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = pop(heap)
            if entry.alive:
                return entry
            self.dead -= 1
        return None

    def peek(self) -> Optional[_Entry]:
        """The live head, left on the heap; sheds dead heads as it looks."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if heap[0].alive:
                return heap[0]
            pop(heap)
            self.dead -= 1
        return None

    def drain(self, fire: Callable[[_Entry], None],
              until: Optional[float] = None) -> None:
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            # The heap alias stays valid across callbacks because
            # _compact() rewrites the list in place.
            while heap:
                entry = pop(heap)
                if not entry.alive:
                    self.dead -= 1
                    continue
                fire(entry)
            return
        while True:
            head = self.peek()
            if head is None or head.time > until:
                return
            pop(heap)
            fire(head)


class Simulator:
    """Discrete-event simulator with a deterministic pluggable event queue.

    The public surface is intentionally small:

    * :meth:`schedule` / :meth:`schedule_at` — enqueue a raw callback,
    * :meth:`spawn` — start a generator process
      (see :class:`repro.simkernel.process.Process`),
    * :meth:`event` — create an :class:`~repro.simkernel.events.Event`,
    * :meth:`run` / :meth:`step` — advance time;
    * :attr:`tracer` — the simulation's one :class:`~repro.trace.Tracer`.

    ``queue`` is the event queue to run on; ``None`` builds a fresh
    :class:`~repro.simkernel.calqueue.CalendarQueue`.  Equivalence tests
    pass a :class:`HeapEventQueue`; micro-benchmarks tune
    ``CalendarQueue(min_bucket=...)`` this way.

    Example
    -------
    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(5.0, hits.append, 5)
    <repro.simkernel.kernel._Entry ...>
    >>> sim.run()
    >>> (sim.now, hits)
    (5.0, [5])
    """

    def __init__(self, queue: Optional[EventQueue] = None) -> None:
        self._now: float = 0.0
        self._queue: EventQueue = (
            calqueue.CalendarQueue() if queue is None else queue
        )
        self._seq: int = 0
        self._processes_started: int = 0
        self._events_executed: int = 0
        #: The one trace of this simulation; every component running on
        #: this simulator records into it.
        self.tracer: Tracer = Tracer(self)

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of queue entries executed so far (diagnostics)."""
        return self._events_executed

    @property
    def dead_entries(self) -> int:
        """Cancelled entries still occupying queue slots (diagnostics)."""
        return self._queue.dead

    @property
    def compactions(self) -> int:
        """Number of queue compactions performed so far (diagnostics)."""
        return self._queue.compactions

    # -- scheduling ------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> _Entry:
        """Schedule ``fn(*args)`` to run *delay* seconds from now.

        Returns an opaque handle whose ``alive`` flag can be cleared via
        :meth:`cancel` to revoke the callback.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s into the past")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> _Entry:
        """Schedule ``fn(*args)`` at absolute simulation *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now is t={self._now})"
            )
        entry = _Entry(time, self._seq, fn, args)
        self._seq += 1
        self._queue.push(entry)
        return entry

    def cancel(self, entry: _Entry) -> None:
        """Revoke a scheduled callback (no-op if it already ran).

        Cancellation is lazy — see the queue implementations for the
        dead-entry accounting and compaction rules shared by both.
        """
        self._queue.cancel(entry)

    # -- events & processes ------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event` bound to this simulator."""
        return Event(self, name)

    def spawn(self, generator: Generator, name: str = "") -> "Process":
        """Start a generator as a simulation process.

        The process begins executing at the current time (as a queued step,
        not synchronously). Returns the :class:`Process`, which is itself
        waitable.
        """
        from repro.simkernel.process import Process  # local: avoid cycle

        self._processes_started += 1
        return Process(self, generator, name=name)

    # -- execution ---------------------------------------------------------

    def _fire(self, entry: _Entry) -> None:
        """Advance the clock to *entry* and execute it (must be alive)."""
        self._now = entry.time
        self._events_executed += 1
        # An executed entry is marked dead so a late cancel() of its handle
        # (e.g. a walltime guard cancelled after it fired) stays a no-op in
        # the dead-entry accounting.
        entry.alive = False
        entry.fn(*entry.args)

    def step(self) -> bool:
        """Execute the next live queue entry.  Returns ``False`` when empty."""
        entry = self._queue.pop()
        if entry is None:
            return False
        self._fire(entry)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass *until*.

        When *until* is given, the clock is left exactly at *until* even if
        the queue drained earlier, so back-to-back ``run(until=...)`` calls
        behave like a progressing wall clock.
        """
        if until is None:
            self._queue.drain(self._fire)
            return
        if until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        self._queue.drain(self._fire, until)
        self._now = until

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        head = self._queue.peek()
        return head.time if head is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Simulator t={self._now:.3f} queued={len(self._queue)} "
            f"executed={self._events_executed}>"
        )
