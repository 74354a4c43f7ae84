"""One-shot events.

An :class:`Event` is the basic synchronisation primitive of the kernel:
processes ``yield`` an event to suspend until someone calls
:meth:`Event.succeed`.  The value passed to ``succeed`` is delivered to
every waiter as the result of its ``yield``.

Events are *one-shot*: once triggered they stay triggered, and yielding an
already-triggered event resumes the process immediately (on the next kernel
step at the current simulation time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.simkernel.kernel import Simulator


class EventError(RuntimeError):
    """Raised when an event is triggered a second time."""


class Event:
    """A one-shot event that processes can wait on.

    Parameters
    ----------
    sim:
        The owning simulator. Needed so that ``succeed`` can schedule waiter
        wake-ups at the current simulation time.
    """

    __slots__ = ("sim", "value", "_callbacks", "_triggered")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: The value passed to :meth:`succeed` (``None`` until then).
        self.value: Any = None
        self._callbacks: List[Callable[[Event], None]] = []
        self._triggered = False

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, waking all waiters with *value*."""
        if self._triggered:
            raise EventError(f"{self!r} has already been triggered")
        self._triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            # Callbacks run at the *current* simulation time but as separate
            # queue entries, preserving deterministic FIFO wake-up order.
            self.sim.schedule(0.0, cb, self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register *callback* to run (via the event queue) once triggered.

        If the event has already been triggered the callback is scheduled
        immediately at the current time.
        """
        if self._triggered:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "triggered" if self._triggered else "pending"
        return f"<Event {state}>"
