"""Discrete-event simulation kernel.

Everything in :mod:`repro` runs on this kernel: simulated cluster nodes,
boot chains, batch schedulers and the dualboot-oscar daemons are all
generator-based processes scheduled on a single deterministic event queue.

The kernel is deliberately small and SimPy-flavoured:

* :class:`~repro.simkernel.kernel.Simulator` owns the clock and the event
  queue (a calendar queue ordered by ``(time, sequence)`` so same-time
  events fire in schedule order — determinism is a hard requirement, see
  DESIGN.md).
* Processes are plain Python generators that ``yield`` *waitables*:
  :class:`~repro.simkernel.process.Timeout`, :class:`~repro.simkernel.events.Event`
  or another :class:`~repro.simkernel.process.Process`.
* All randomness flows through :class:`~repro.simkernel.rng.RngStreams`,
  which derives independent named substreams from one root seed.

Example
-------
>>> from repro.simkernel import Simulator, Timeout
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield Timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker("a", 2.0))
>>> _ = sim.spawn(worker("b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from repro.simkernel.calqueue import CalendarQueue
from repro.simkernel.events import Event
from repro.simkernel.kernel import HeapEventQueue, Simulator
from repro.simkernel.process import (
    Interrupt,
    Process,
    ProcessKilled,
    Timeout,
)
from repro.simkernel.resources import Store
from repro.simkernel.rng import RngStreams
from repro.simkernel.timeunits import (
    DAY,
    HOUR,
    MINUTE,
    SECOND,
    format_duration,
)

__all__ = [
    "CalendarQueue",
    "DAY",
    "Event",
    "HeapEventQueue",
    "HOUR",
    "Interrupt",
    "MINUTE",
    "Process",
    "ProcessKilled",
    "RngStreams",
    "SECOND",
    "Simulator",
    "Store",
    "Timeout",
    "format_duration",
]
