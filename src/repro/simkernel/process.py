"""Generator-based simulation processes.

A process is a plain generator that yields one of two things:

``yield Timeout(30)``
    suspend for 30 simulated seconds;
``yield some_event``
    suspend until the :class:`~repro.simkernel.events.Event` triggers (its
    value becomes the result of the ``yield`` expression).

Processes can be interrupted: :meth:`Process.interrupt` raises
:class:`Interrupt` inside the generator at its current ``yield``.  A process
function returns a value with a plain ``return``; it is kept as
:attr:`Process.result`.

A process that raises does not die quietly: an exception the generator
does not catch (an uncaught :class:`Interrupt`, or the ``TypeError`` for
yielding anything else) marks it dead and propagates out of
:meth:`Simulator.run <repro.simkernel.kernel.Simulator.run>`, stopping
the run at the simulated time it was raised.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.simkernel.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator


class Interrupt(Exception):
    """Raised inside a process when someone calls :meth:`Process.interrupt`.

    ``cause`` carries the interrupter's payload (e.g. "power failure").
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Yield one to suspend the yielding process for ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Timeout({self.delay})"


class Process:
    """A running generator on the simulator.

    Do not instantiate directly — use :meth:`Simulator.spawn`.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        #: The generator's return value, once it has returned.
        self.result: Any = None
        self._gen = generator
        self._alive = True
        self._pending_entry = None  # heap entry for an active Timeout, if any
        self._waiting_on_event: Optional[Event] = None
        sim.schedule(0.0, self._resume, None, None)

    # -- public surface ----------------------------------------------------

    @property
    def alive(self) -> bool:
        """``True`` while the generator has not finished or been killed."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield."""
        if not self._alive:
            return
        self._detach_current_wait()
        self.sim.schedule(0.0, self._resume, None, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process without running any more of its code."""
        if not self._alive:
            return
        self._alive = False
        self._detach_current_wait()
        self._gen.close()

    # -- internal machinery --------------------------------------------------

    def _detach_current_wait(self) -> None:
        """Disarm whatever the process is currently waiting on."""
        if self._pending_entry is not None:
            # Through sim.cancel (not a raw alive=False) so the kernel's
            # dead-entry accounting sees the cancellation.
            self.sim.cancel(self._pending_entry)
            self._pending_entry = None
        self._waiting_on_event = None

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self._alive:
            return
        self._pending_entry = None
        self._waiting_on_event = None
        try:
            if exc is not None:
                yielded = self._gen.throw(exc)
            else:
                yielded = self._gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self.result = stop.value
            return
        except BaseException:
            self._alive = False
            raise
        if isinstance(yielded, Timeout):
            self._pending_entry = self.sim.schedule(
                yielded.delay, self._resume, None, None
            )
        elif isinstance(yielded, Event):
            self._waiting_on_event = yielded
            yielded.add_callback(self._on_event)
        else:
            self._resume(
                None,
                TypeError(
                    f"process {self.name!r} yielded a non-waitable: {yielded!r}"
                ),
            )

    def _on_event(self, event: Event) -> None:
        # An interrupt or a kill may have detached this wait meanwhile.
        if self._waiting_on_event is event:
            self._resume(event.value, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"
