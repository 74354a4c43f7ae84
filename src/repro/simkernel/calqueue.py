"""Calendar-queue event scheduler for the DES kernel.

A drop-in alternative to :class:`repro.simkernel.kernel.HeapEventQueue`
that exploits the clustered event-time distribution of the simulated
cluster (communicator cycles, boot timers, heartbeat beats, walltime
guards): most pushes land *after* everything currently being drained.

Design — a two-tier "near / far" calendar:

* ``near`` is the current calendar bucket: an ascending-sorted list of
  ``(time, seq, entry)`` tuples consumed through a moving ``pos`` index.
  Draining it is a C-speed list walk — no ``heapq`` sift, no Python-level
  ``_Entry.__lt__`` calls.
* ``far`` is everything at or past the ``horizon``: an append-only list
  sorted lazily (one timsort over a mostly-sorted list) only when the
  near bucket empties and the calendar advances (``_refill``).

Pushes below the horizon bisect into the live tail of ``near``;
everything else appends to ``far`` in O(1).  The refill chunk adapts to
the queue size (``max(min_bucket, len(far) / 8)``) so both the front
``del`` on ``far`` and the sort amortise to O(1)-ish per event, and a
near-overflow spill (bucket resize) hands the far half of an oversized
near bucket back to ``far`` so bisect inserts stay cheap.

Correctness invariants (exercised by the Hypothesis equivalence suite in
``tests/simkernel/test_queue_equivalence.py``):

* every ``near`` time < ``horizon`` <= every ``far`` time,
* refill/spill boundaries never split a group of equal times, so the
  ``(time, seq)`` total order — and therefore every trace byte — is
  identical to the binary heap's,
* dead-entry accounting matches the heap exactly: cancelled entries stay
  in place until drained past or compacted away.

Memory is O(live entries).  Each ``near`` slot is overwritten with
``_CONSUMED`` as it is taken, so a fired or drained-past entry (with its
callback and all a bound method keeps alive) is freed young, at once.
The slots themselves stay in ``near[:pos]``: a refill replaces ``near``,
but once the horizon is infinite (the whole queue fits in one bucket,
which every long simulation reaches) no refill ever runs again, so
``push`` trims that prefix once it is longer than both ``min_bucket``
and the live tail.  The ``del`` moves at most as many items as it
frees, so it amortises to O(1) per event.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.simkernel.kernel import _Entry

#: One calendar item.  ``(time, seq)`` lead so list sort/bisect compare
#: at C speed and never fall through to ``_Entry.__lt__``.
_Item = Tuple[float, int, "_Entry"]

_INF = float("inf")


#: What a taken ``near`` slot holds (never read: every walk starts at pos).
_CONSUMED: Any = (0.0, 0, None)


class CalendarQueue:
    """Two-tier calendar queue with the heap's exact ``(time, seq)`` order.

    ``min_bucket`` is the smallest refill chunk; the effective bucket
    width adapts to ``len(far) / 8`` above that.  See module docstring
    for the invariants and ``docs/PERFORMANCE.md`` for when this queue
    wins over the heap.
    """

    def __init__(self, min_bucket: int = 2048) -> None:
        from repro.simkernel.kernel import _COMPACT_FLOOR  # local: avoid cycle

        self._compact_floor = _COMPACT_FLOOR
        self._near: List[_Item] = []
        self._pos: int = 0
        self._horizon: float = 0.0
        self._far: List[_Item] = []
        self._dirty: bool = False
        self.min_bucket: int = min_bucket
        #: Cancelled entries still occupying calendar slots.
        self.dead: int = 0
        #: Compactions performed (same trigger rule as the heap).
        self.compactions: int = 0
        #: Bucket resizes: refills plus near-overflow spills.
        self.resizes: int = 0

    def __len__(self) -> int:
        """Entries still queued (live and cancelled alike) — heap parity."""
        return (len(self._near) - self._pos) + len(self._far)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CalendarQueue near={len(self._near) - self._pos} "
            f"far={len(self._far)} horizon={self._horizon} dead={self.dead}>"
        )

    # -- scheduling --------------------------------------------------------

    def push(self, entry: "_Entry") -> None:
        """Insert *entry*; O(1) append past the horizon, bisect below it."""
        t = entry.time
        if t < self._horizon:
            near = self._near
            pos = self._pos
            if pos > self.min_bucket and pos > len(near) - pos:
                # drop the consumed prefix: fired tuples (and the callbacks
                # they hold) must not outlive their event
                del near[:pos]
                self._pos = pos = 0
            insort(near, (t, entry.seq, entry), lo=pos)
            live = len(near) - pos
            if live > (self.min_bucket << 2) and live > len(self._far):
                self._spill()
        else:
            far = self._far
            if far and t < far[-1][0]:
                self._dirty = True
            far.append((t, entry.seq, entry))

    def cancel(self, entry: "_Entry") -> None:
        """Lazy deletion with the heap's exact compaction trigger."""
        if entry.alive:
            entry.alive = False
            self.dead += 1
            if self.dead > self._compact_floor and self.dead * 2 > len(self):
                self._compact()

    def _compact(self) -> None:
        """Drop dead entries from both tiers; order and horizon unchanged."""
        self._near = [item for item in self._near[self._pos:] if item[2].alive]
        self._pos = 0
        self._far = [item for item in self._far if item[2].alive]
        self.dead = 0
        self.compactions += 1

    # -- calendar maintenance ---------------------------------------------

    def _refill(self) -> bool:
        """Advance the calendar: move the next bucket of ``far`` into ``near``.

        Returns ``False`` when ``far`` is empty (queue fully drained).
        The cut never splits a group of equal times: ties straddling the
        boundary would otherwise fire out of ``seq`` order.
        """
        far = self._far
        if not far:
            return False
        if self._dirty:
            far.sort()
            self._dirty = False
        cut = len(far) >> 3
        if cut < self.min_bucket:
            cut = self.min_bucket
        if cut < len(far):
            while cut < len(far) and far[cut][0] == far[cut - 1][0]:
                cut += 1
        if cut >= len(far):
            self._near = far
            self._pos = 0
            self._far = []
            self._horizon = _INF
        else:
            self._near = far[:cut]
            self._pos = 0
            del far[:cut]
            self._horizon = far[0][0]
        self.resizes += 1
        return True

    def _spill(self) -> None:
        """Bucket resize: hand the far half of an oversized ``near`` back.

        Keeps bisect inserts proportional to the bucket width even when
        the whole queue collapsed into ``near`` (horizon at infinity).
        Tie-safe for the same reason as :meth:`_refill`; the spilled
        block is ascending, so ``far`` only needs a re-sort if it was
        non-empty (in which case its head predates the spilled block).
        """
        near = self._near
        cut = self._pos + ((len(near) - self._pos) >> 1)
        while cut < len(near) and near[cut][0] == near[cut - 1][0]:
            cut += 1
        if cut >= len(near):
            return  # one giant tie group: nothing safe to hand back
        self._horizon = near[cut][0]
        if self._far:
            self._dirty = True
        self._far.extend(near[cut:])
        del near[cut:]
        self.resizes += 1

    # -- consumption -------------------------------------------------------

    def pop(self) -> Optional["_Entry"]:
        """Remove and return the next live entry, or ``None`` when empty."""
        near = self._near
        pos = self._pos
        n = len(near)
        while True:
            while pos < n:
                entry = near[pos][2]
                near[pos] = _CONSUMED
                pos += 1
                if entry.alive:
                    self._pos = pos
                    return entry
                self.dead -= 1
            self._pos = pos
            if not self._refill():
                return None
            near = self._near
            pos = self._pos
            n = len(near)

    def peek(self) -> Optional["_Entry"]:
        """The next live entry without removing it (sheds dead heads)."""
        while True:
            near = self._near
            pos = self._pos
            n = len(near)
            while pos < n:
                entry = near[pos][2]
                if entry.alive:
                    self._pos = pos
                    return entry
                near[pos] = _CONSUMED
                pos += 1
                self.dead -= 1
            self._pos = pos
            if not self._refill():
                return None

    def drain(self, fire: Callable[["_Entry"], None], until: Optional[float] = None) -> None:
        """Fire every live entry in ``(time, seq)`` order.

        With *until*, stops before the first live entry past it (the
        entry stays queued).  ``self._pos`` is committed before each
        ``fire`` so callbacks may push, cancel, compact or spill freely;
        the local aliases are re-read after every callback.
        """
        if until is None:
            while True:
                near = self._near
                pos = self._pos
                n = len(near)
                while pos < n:
                    entry = near[pos][2]
                    near[pos] = _CONSUMED
                    pos += 1
                    if entry.alive:
                        self._pos = pos
                        fire(entry)
                        near = self._near
                        pos = self._pos
                        n = len(near)
                    else:
                        self.dead -= 1
                self._pos = pos
                if not self._refill():
                    return
        else:
            while True:
                near = self._near
                pos = self._pos
                n = len(near)
                while pos < n:
                    item = near[pos]
                    entry = item[2]
                    if entry.alive and item[0] > until:
                        self._pos = pos
                        return
                    near[pos] = _CONSUMED
                    pos += 1
                    if not entry.alive:
                        self.dead -= 1
                        continue
                    self._pos = pos
                    fire(entry)
                    near = self._near
                    pos = self._pos
                    n = len(near)
                self._pos = pos
                if not self._refill():
                    return
