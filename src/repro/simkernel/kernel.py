"""The simulator: clock + deterministic event queue.

The queue is a binary heap of ``(time, sequence, entry)`` tuples owned
by the :class:`Simulator`.  The monotonically increasing sequence number
breaks time ties so that events scheduled first fire first, and, being
unique, it keeps ``heapq`` from ever comparing two entries: the order is
the strict total order on ``(time, sequence)``, compared in C.  This
makes every simulation in the test suite and the benchmark harness
bit-for-bit reproducible.

Cancellation is lazy: a cancelled entry stays in the heap with its
``alive`` flag cleared and is skipped when it surfaces.  The simulator
counts dead entries and compacts the heap once they exceed
``_COMPACT_FLOOR`` and outnumber the live ones, so long runs with heavy
cancellation (walltime guards that almost never fire, interrupted waits)
keep the heap, and every push and pop on it, proportional to the *live*
event count.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    List,
    Optional,
    Tuple,
)

from repro.trace.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simkernel.process import Process


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a dead kernel)."""


#: Below this many dead entries compaction is never worth the rebuild cost.
_COMPACT_FLOOR = 64


class _Entry:
    """A scheduled callback.  Cancellation flips ``alive`` (lazy deletion)."""

    __slots__ = ("fn", "args", "alive")

    def __init__(self, fn: Callable[..., Any], args: tuple):
        self.fn = fn
        self.args = args
        self.alive = True


class Simulator:
    """Discrete-event simulator with a deterministic event queue.

    The public surface is intentionally small:

    * :meth:`schedule` / :meth:`schedule_at` — enqueue a raw callback,
    * :meth:`spawn` — start a generator process
      (see :class:`repro.simkernel.process.Process`),
    * :meth:`run` / :meth:`step` — advance time; an exception a callback
      or process raises propagates out of them and stops the run;
    * :attr:`tracer` — the simulation's one :class:`~repro.trace.Tracer`.

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

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, _Entry]] = []
        self._seq: int = 0
        self._dead: int = 0
        self._compactions: int = 0
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
        return self._dead

    @property
    def compactions(self) -> int:
        """Number of queue compactions performed so far (diagnostics)."""
        return self._compactions

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
        entry = _Entry(fn, args)
        heappush(self._heap, (time, self._seq, entry))
        self._seq += 1
        return entry

    def cancel(self, entry: _Entry) -> None:
        """Revoke a scheduled callback (no-op if it already ran).

        Cancellation is lazy: the entry stays queued, counted in
        :attr:`dead_entries`, until it surfaces or a compaction drops it.
        """
        if entry.alive:
            entry.alive = False
            self._dead += 1
            if self._dead > _COMPACT_FLOOR and self._dead * 2 > len(self._heap):
                self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify, preserving list identity.

        ``heapify`` over the surviving entries is deterministic because
        ``(time, seq)`` is a strict total order, so the pop order does
        not depend on the heap's internal layout.  The slice assignment
        keeps the heap the same list object: :meth:`run` holds an alias.
        """
        heap = self._heap
        heap[:] = [item for item in heap if item[2].alive]
        heapify(heap)
        self._dead = 0
        self._compactions += 1

    # -- processes -----------------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> "Process":
        """Start a generator as a simulation process.

        The process begins executing at the current time (as a queued step,
        not synchronously). Returns the :class:`Process`.
        """
        from repro.simkernel.process import Process  # local: avoid cycle

        return Process(self, generator, name=name)

    # -- execution ---------------------------------------------------------

    def _fire(self, time: float, entry: _Entry) -> None:
        """Advance the clock to *time* and execute the (live) *entry*."""
        self._now = time
        self._events_executed += 1
        # An executed entry is marked dead so a late cancel() of its handle
        # (e.g. a walltime guard cancelled after it fired) stays a no-op in
        # the dead-entry accounting.
        entry.alive = False
        entry.fn(*entry.args)

    def step(self) -> bool:
        """Execute the next live queue entry.  Returns ``False`` when empty."""
        if self.peek() is None:
            return False
        time, _, entry = heappop(self._heap)
        self._fire(time, entry)
        return True

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass *until*.

        When *until* is given, the clock is left exactly at *until* even if
        the queue drained earlier, so back-to-back ``run(until=...)`` calls
        behave like a progressing wall clock.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        # The alias stays valid across callbacks: _compact() works in place.
        heap = self._heap
        while heap:
            time, _, entry = item = heappop(heap)
            if not entry.alive:
                self._dead -= 1
                continue
            if until is not None and time > until:
                heappush(heap, item)
                break
            # _fire, inlined: this loop runs once per event
            self._now = time
            self._events_executed += 1
            entry.alive = False
            entry.fn(*entry.args)
        if until is not None:
            self._now = until

    def peek(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty.

        Dead entries at the head are dropped on the way.
        """
        heap = self._heap
        while heap:
            if heap[0][2].alive:
                return heap[0][0]
            heappop(heap)
            self._dead -= 1
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Simulator t={self._now:.3f} queued={len(self._heap)} "
            f"executed={self._events_executed}>"
        )
