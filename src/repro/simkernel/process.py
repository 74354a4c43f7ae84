"""Generator-based simulation processes.

A process is a plain generator that yields *waitables*:

``yield Timeout(30)``
    suspend for 30 simulated seconds;
``yield some_event``
    suspend until the :class:`~repro.simkernel.events.Event` triggers (its
    value becomes the result of the ``yield`` expression);
``yield other_process``
    suspend until another process finishes (joining), receiving its return
    value.

Processes can be interrupted: :meth:`Process.interrupt` raises
:class:`Interrupt` inside the generator at its current ``yield``.  A process
function returns a value with a plain ``return``; waiters receive it.
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


class ProcessKilled(Exception):
    """Delivered to waiters of a process that was killed via :meth:`Process.kill`."""


class Timeout:
    """Waitable: suspend the yielding process for ``delay`` seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"Timeout delay must be >= 0, got {delay}")
        self.delay = delay
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Timeout({self.delay})"


class Process:
    """A running generator on the simulator.

    Do not instantiate directly — use :meth:`Simulator.spawn`.

    A process is itself waitable: other processes may ``yield proc`` to join
    it, receiving its return value (or its uncaught exception).
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        self._done_event = Event(sim, name=f"done:{self.name}")
        self._alive = True
        self._pending_entry = None  # heap entry for an active Timeout, if any
        self._waiting_on_event: Optional[Event] = None
        sim.schedule(0.0, self._resume, None, None)

    # -- public surface ----------------------------------------------------

    @property
    def alive(self) -> bool:
        """``True`` while the generator has not finished or been killed."""
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the process (only valid once finished OK)."""
        if not self._done_event.triggered:
            raise RuntimeError(f"process {self.name!r} still running")
        if not self._done_event.ok:
            raise self._done_event.value
        return self._done_event.value

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield."""
        if not self._alive:
            return
        self._detach_current_wait()
        self.sim.schedule(0.0, self._resume, None, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process without running any more of its code.

        Waiters receive :class:`ProcessKilled`.
        """
        if not self._alive:
            return
        self._alive = False
        self._detach_current_wait()
        self._gen.close()
        self._done_event.fail(ProcessKilled(f"process {self.name!r} killed"))

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
            self._finish(ok=True, value=stop.value)
            return
        except Exception as error:
            self._finish(ok=False, value=error)
            return
        self._wait_on(yielded)

    def _finish(self, ok: bool, value: Any) -> None:
        self._alive = False
        if ok:
            self._done_event.succeed(value)
        else:
            self._done_event.fail(value)

    def _wait_on(self, waitable: Any) -> None:
        if isinstance(waitable, Timeout):
            self._pending_entry = self.sim.schedule(
                waitable.delay, self._resume, waitable.value, None
            )
        elif isinstance(waitable, Process):
            self._wait_on_event(waitable._done_event)
        elif isinstance(waitable, Event):
            self._wait_on_event(waitable)
        else:
            self._resume(
                None,
                TypeError(
                    f"process {self.name!r} yielded a non-waitable: {waitable!r}"
                ),
            )

    def _wait_on_event(self, event: Event) -> None:
        self._waiting_on_event = event

        def on_trigger(ev: Event, *, _proc: "Process" = self) -> None:
            # An interrupt may have detached this wait in the meantime.
            if _proc._waiting_on_event is not ev or not _proc._alive:
                return
            if ev.ok:
                _proc._resume(ev.value, None)
            else:
                _proc._resume(None, ev.value)

        event.add_callback(on_trigger)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"
